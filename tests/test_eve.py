"""Eavesdropping strategies: taps, unitarity validation, and Eve's guesses."""

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import (
    EntanglingEve,
    Ket2,
    NoEve,
    NoiseModel,
    OpaqueEve,
    PhotonSplitEve,
    Rng,
    SessionConfig,
    b92_alphabet,
    build_povm,
    entangling_swap_attack,
    identity_translucent,
    inner,
    measure_povm,
    polarization,
    povm_probabilities,
    run_session,
    states_equal,
    TranslucentEve,
    translucent_swap_attack,
    validate_interaction,
)
from qkdsim.channel import PublicTranscript
from qkdsim.errors import NotUnitary, StateNotInAlphabet
from qkdsim.eve import EveTap, discrimination_measurement, eve_guess
from qkdsim.protocol import (
    make_tap,
    run_stage1_b92,
    run_stage1_bb84,
    session_transcript,
    sift_b92,
    sift_bb84,
)
from qkdsim.quantum import Ket4, measure_povm_carrier, product_factors
from util import best_projective_discrimination, binomial_sigma

THETA = math.pi / 8
VERTICAL = Ket2(1, 0)


def _bb84_opaque_run(fraction, n, seed):
    cfg = SessionConfig("bb84", n, eve=OpaqueEve(fraction), seed=seed)
    rng = Rng(seed)
    tap = make_tap(cfg, rng)
    record = run_stage1_bb84(cfg, rng, tap)
    transcript = PublicTranscript()
    sift = sift_bb84(record, transcript)
    return tap, transcript, sift


def test_opaque_zero_fraction_is_identity():
    tap = EveTap(OpaqueEve(0.0), "bb84", Rng(80))
    for _ in range(500):
        state = polarization(0.3)
        assert tap.apply(0, 1, state) is state
    assert len(tap.record) == 0


def test_opaque_full_interception_error_rate():
    tap, transcript, sift = _bb84_opaque_run(1.0, 45_000, seed=81)
    assert len(sift.raw_alice) >= 20_000
    errors = sum(1 for a, b in zip(sift.raw_alice, sift.raw_bob) if a != b)
    rate = errors / len(sift.raw_alice)
    assert abs(rate - 0.25) < 0.02


def test_opaque_eve_agreement_with_alice():
    # Conditioning on Eve's basis choice: 1/2 * 1 + 1/2 * 1/2 = 3/4.
    tap, transcript, sift = _bb84_opaque_run(1.0, 45_000, seed=82)
    alice = dict(zip(sift.slots, sift.raw_alice))
    recorded = [(slot, bit) for slot, (_, bit) in tap.record.items() if slot in alice]
    agree = sum(1 for slot, bit in recorded if alice[slot] == bit) / len(recorded)
    assert abs(agree - 0.75) < 0.02
    guesses = eve_guess(tap, transcript)
    accuracy = sum(1 for s, (b, _) in guesses.items() if alice.get(s) == b) / len(guesses)
    assert abs(accuracy - 0.75) < 0.02


def test_opaque_error_scales_linearly():
    n = 30_000
    for seed, fraction in ((83, 0.25), (84, 0.5), (85, 1.0)):
        _, _, sift = _bb84_opaque_run(fraction, n, seed)
        errors = sum(1 for a, b in zip(sift.raw_alice, sift.raw_bob) if a != b)
        rate = errors / len(sift.raw_alice)
        expected = fraction / 4
        sigma = binomial_sigma(expected, len(sift.raw_alice))
        assert abs(rate - expected) < 3 * sigma + 1e-9


@pytest.mark.parametrize("fraction", [-0.1, 1.5, math.nan])
def test_opaque_fraction_out_of_range(fraction):
    with pytest.raises(ValueError, match="fraction must lie in"):
        OpaqueEve(fraction)


def test_record_refuses_a_slot_twice():
    tap = EveTap(PhotonSplitEve(), "bb84", Rng(0))
    tap.apply(3, 2, VERTICAL)
    with pytest.raises(ValueError, match="slot 3 already recorded"):
        tap.apply(3, 2, Ket2(0, 1))
    assert list(tap.record) == [3]
    assert states_equal(tap.record[3], VERTICAL)


def test_validate_identity_interaction():
    validate_interaction(identity_translucent(THETA))


def test_validate_rejects_non_translucent_strategy():
    with pytest.raises(TypeError, match="not a translucent strategy: OpaqueEve"):
        validate_interaction(OpaqueEve())


def test_validate_rejects_product_form_with_orthogonal_probes():
    # a=1, b=0 with orthogonal probes forces output overlap 0 != cos 2t.
    alpha = b92_alphabet(THETA)
    with pytest.raises(NotUnitary, match="output overlap"):
        EntanglingEve(THETA, 1.0, 0.0, alpha[1], alpha[0], Ket2(1, 0), Ket2(0, 1))


def test_validate_rejects_bad_amplitudes():
    ok = entangling_swap_attack(THETA)
    with pytest.raises(NotUnitary, match=r"\|a\|\^2 \+ \|b\|\^2 = 2\.0+, expected 1"):
        EntanglingEve(THETA, 1.0, 1.0, ok.out_plus, ok.out_minus, ok.probe_plus, ok.probe_minus)


def test_validate_rejects_carriers_of_wrong_norm():
    # |a|^2 + |b|^2 = 1, but equal out states add up to carriers of norm sqrt(2).
    ok = entangling_swap_attack(THETA)
    amp = math.sqrt(0.5)
    with pytest.raises(NotUnitary, match="output norms"):
        EntanglingEve(THETA, amp, amp, ok.out_plus, ok.out_plus, ok.probe_plus, ok.probe_minus)


def test_translucent_eve_refuses_non_unitary_coupling():
    # Erasing the carrier with equal probes leaves the output overlap at 1, not cos 2t.
    fixed = Ket2(1.0, 0.0)
    with pytest.raises(NotUnitary, match=r"output overlap 1\.0+\+0\.0+j differs from input overlap 0\.70710678"):
        TranslucentEve(THETA, fixed, fixed, fixed, fixed)


def test_validate_rejects_nan_amplitude():
    ok = entangling_swap_attack(THETA)
    with pytest.raises(NotUnitary, match=r"\|a\|\^2 \+ \|b\|\^2 = nan"):
        EntanglingEve(THETA, math.nan, ok.b, ok.out_plus, ok.out_minus, ok.probe_plus, ok.probe_minus)


def test_translucent_strategies_refuse_bb84():
    # The session config and the tap share one rule: a coupling needs the B92 code states.
    for strategy in (translucent_swap_attack(THETA), entangling_swap_attack(THETA)):
        with pytest.raises(ValueError, match="b92 protocol only"):
            SessionConfig("bb84", 100, theta=THETA, eve=strategy)
        with pytest.raises(ValueError, match="b92 protocol only"):
            EveTap(strategy, "bb84", Rng(0), theta=THETA)


@pytest.mark.parametrize(
    "strategy,protocol",
    [
        (OpaqueEve(1.0), "bb84"),
        (PhotonSplitEve(), "bb84"),
        (translucent_swap_attack(THETA), "b92"),
        (OpaqueEve(1.0), "b92"),
        (PhotonSplitEve(), "b92"),
        (entangling_swap_attack(THETA), "b92"),
    ],
)
def test_tap_is_freed_without_the_cycle_collector(strategy, protocol):
    # A tap that referenced itself, through its action or its guess rule, would
    # keep its record after the session until a full collection, and a run of
    # sessions would pile records up.
    tap = EveTap(strategy, protocol, Rng(0), theta=THETA)
    tap.apply(0, 2, b92_alphabet(THETA)[1])
    ref = weakref.ref(tap)
    gc.disable()
    try:
        del tap
        assert ref() is None
    finally:
        gc.enable()


def test_no_tap_for_absent_eve():
    with pytest.raises(TypeError):
        EveTap(NoEve(), "bb84", Rng(0))


def test_fitted_entangling_parameters_validate():
    strategy = entangling_swap_attack(THETA)
    validate_interaction(strategy)
    # The constraint solution: orthogonal out states, a = b = 1/sqrt(2),
    # probe overlap pinned at cos 2t.
    assert abs(inner(strategy.out_plus, strategy.out_minus)) < 1e-12
    assert abs(inner(strategy.probe_plus, strategy.probe_minus) - math.cos(2 * THETA)) < 1e-12


def test_translucent_identity_forwards_unchanged():
    tap = EveTap(identity_translucent(THETA), "b92", Rng(86), theta=THETA)
    alpha = b92_alphabet(THETA)
    for bit in (0, 1):
        out = tap.apply(bit, 1, alpha[bit])
        assert states_equal(out, alpha[bit], tol=1e-12)


def test_translucent_rejects_non_code_state():
    tap = EveTap(translucent_swap_attack(THETA), "b92", Rng(87), theta=THETA)
    with pytest.raises(StateNotInAlphabet):
        tap.apply(0, 1, VERTICAL)


def test_translucent_tap_below_tolerance_keeps_the_plus_row():
    # At theta = 1e-6 the code states overlap by 1 - 2e-12, one state within
    # tolerance, so a minus-state pulse meets the plus row first.
    theta = 1e-6
    strategy = translucent_swap_attack(theta)
    alpha = b92_alphabet(theta)
    assert states_equal(alpha[0], alpha[1])
    tap = EveTap(strategy, "b92", Rng(88), theta=theta)
    for bit in (0, 1):
        tap.apply(bit, 1, alpha[bit])
        assert tap.record[bit] is strategy.probe_plus


def test_translucent_tap_finds_a_code_state_up_to_phase():
    # Off the code state's exact amplitudes, the row is found by states_equal.
    strategy = translucent_swap_attack(THETA)
    tap = EveTap(strategy, "b92", Rng(89), theta=THETA)
    minus = b92_alphabet(THETA)[0]
    out = tap.apply(0, 1, Ket2(-minus.a0, -minus.a1))
    assert tap.record[0] is strategy.probe_minus
    assert out is strategy.out_minus


def test_translucent_swap_probe_agreement_matches_helstrom():
    # Brute-force oracle over projective measurements fixes the target.
    strategy = translucent_swap_attack(THETA)
    oracle = best_projective_discrimination(strategy.probe_minus, strategy.probe_plus)
    closed_form = 0.5 * (1 + math.sin(2 * THETA))
    assert oracle == pytest.approx(closed_form, abs=1e-6)
    _, success = discrimination_measurement(strategy.probe_minus, strategy.probe_plus)
    assert success == pytest.approx(closed_form, abs=1e-12)

    cfg = SessionConfig("b92", 100_000, eve=strategy, seed=88, r_max=1.0)
    rng = Rng(cfg.seed)
    tap = make_tap(cfg, rng)
    record = run_stage1_b92(cfg, rng, tap)
    transcript = PublicTranscript()
    sift = sift_b92(record, transcript)
    guesses = eve_guess(tap, transcript)
    alice = dict(zip(sift.slots, sift.raw_alice))
    hits = sum(1 for s, (b, _) in guesses.items() if alice.get(s) == b)
    assert abs(hits / len(guesses) - closed_form) < 0.02


def _entangled_joint(strategy, bit):
    """Joint carrier-probe vector the coupling leaves for one code bit.

    kron(a|out+> + b|out->, |probe+>) for bit 1 and
    kron(b|out+> + a|out->, |probe->) for bit 0, normalised.
    """
    a, b = strategy.a, strategy.b
    plus, minus = strategy.out_plus.vec, strategy.out_minus.vec
    if bit:
        joint = np.kron(a * plus + b * minus, strategy.probe_plus.vec)
    else:
        joint = np.kron(b * plus + a * minus, strategy.probe_minus.vec)
    return joint / np.linalg.norm(joint)


def test_entangling_bob_statistics_match_quadratic_forms():
    # Oracle: <J|(A_i (x) 1)|J> evaluated with plain numpy kron/dot on the
    # two joint states the coupling defines; the tap forwards their carrier.
    strategy = entangling_swap_attack(THETA)
    povm = build_povm(THETA)
    alpha = b92_alphabet(THETA)
    eye = np.eye(2, dtype=complex)

    expected = {}
    for bit in (0, 1):
        vec = _entangled_joint(strategy, bit)
        expected[bit] = [
            float((vec.conj() @ (np.kron(el, eye) @ vec)).real) for el in povm.elements()
        ]
        tap = EveTap(strategy, "b92", Rng(0), theta=THETA)
        out = tap.apply(0, 1, alpha[bit])
        carrier, _ = product_factors(Ket4(*vec))
        assert isinstance(out, Ket2)
        assert states_equal(out, carrier, tol=1e-12)

    cfg = SessionConfig("b92", 60_000, eve=strategy, seed=89, r_max=1.0)
    rng = Rng(cfg.seed)
    tap = make_tap(cfg, rng)
    record = run_stage1_b92(cfg, rng, tap)
    counts = {0: [0, 0, 0], 1: [0, 0, 0]}
    totals = {0: 0, 1: 0}
    for bit, bob_bit, got in zip(record.alice_bits, record.bob_bits, record.received):
        if got:
            # A received slot with no bit was inconclusive (POVM outcome 2).
            counts[bit][2 if bob_bit is None else bob_bit] += 1
            totals[bit] += 1
    for bit in (0, 1):
        for idx in range(3):
            want = expected[bit][idx]
            got = counts[bit][idx] / totals[bit]
            assert abs(got - want) < 3 * binomial_sigma(want, totals[bit]) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bit=st.integers(0, 1),
    theta=st.floats(0.05, math.pi / 4 - 0.05),
)
def test_entangling_tap_matches_joint_state_oracle(seed, bit, theta):
    # Reading the forwarded qubit must give the outcome the carrier-side
    # POVM gives on the joint state, draw for draw, and the recorded probe
    # must be the joint state's probe factor.
    strategy = entangling_swap_attack(theta)
    povm = build_povm(theta)
    tap = EveTap(strategy, "b92", Rng(seed), theta=theta)
    out = tap.apply(0, 1, b92_alphabet(theta)[bit])
    joint = Ket4(*_entangled_joint(strategy, bit))
    want, residual = measure_povm_carrier(joint, povm, Rng(seed))
    assert measure_povm(out, povm, Rng(seed)) == want
    assert states_equal(tap.record[0], residual, tol=1e-12)


_COS_2THETA = math.cos(2 * THETA)


@pytest.mark.parametrize(
    "c_p, seed",
    [(_COS_2THETA, 93), ((1 + _COS_2THETA) / 2, 94), (1.0, 95)],
    ids=["swap", "between", "identity"],
)
def test_translucent_tradeoff_matches_closed_forms(c_p, seed):
    # A unitary coupling forwards polarization(+-phi) and leaves probes
    # polarization(+-psi), with cos 2phi cos 2psi = cos 2theta: the probes'
    # overlap c_p buys Eve information at the price of Bob's disturbance.
    psi = math.acos(c_p) / 2
    phi = math.acos(_COS_2THETA / c_p) / 2
    strategy = TranslucentEve(THETA, polarization(phi), polarization(-phi), polarization(psi), polarization(-psi))
    validate_interaction(strategy)
    povm = build_povm(THETA)

    cfg = SessionConfig("b92", 20_000, eve=strategy, seed=seed, r_max=1.0)
    rng = Rng(cfg.seed)
    tap = make_tap(cfg, rng)
    record = run_stage1_b92(cfg, rng, tap)
    counts = {0: [0, 0, 0], 1: [0, 0, 0]}
    for bit, bob_bit in zip(record.alice_bits, record.bob_bits):
        # Every slot is received; one with no bit was inconclusive (POVM outcome 2).
        counts[bit][2 if bob_bit is None else bob_bit] += 1
    for bit in (0, 1):
        forwarded, _ = strategy.coupling[bit]
        total = sum(counts[bit])
        for want, got in zip(povm_probabilities(forwarded, povm), counts[bit]):
            assert abs(got / total - want) < 3 * binomial_sigma(want, total) + 1e-9

    transcript = PublicTranscript()
    sift = sift_b92(record, transcript)
    guesses = eve_guess(tap, transcript)
    assert sorted(guesses) == sift.slots
    alice = dict(zip(sift.slots, sift.raw_alice))
    hits = sum(1 for slot, (bit, _) in guesses.items() if alice[slot] == bit)
    want = (1 + math.sqrt(1 - c_p**2)) / 2
    assert abs(hits / len(guesses) - want) < 3 * binomial_sigma(want, len(guesses))


def test_split_leaves_single_photon_pulses_alone():
    tap = EveTap(PhotonSplitEve(), "bb84", Rng(90))
    assert tap.apply(5, 1, VERTICAL) is VERTICAL
    assert len(tap.record) == 0


def test_split_diverts_one_photon():
    tap = EveTap(PhotonSplitEve(), "bb84", Rng(91))
    out = tap.apply(5, 2, VERTICAL)
    assert states_equal(out, VERTICAL)
    assert states_equal(tap.record[5], VERTICAL)


def test_split_record_fraction():
    cfg = SessionConfig(
        "bb84", 100_000, noise=NoiseModel(multi_p=1 / 200), eve=PhotonSplitEve(), seed=92
    )
    rng = Rng(cfg.seed)
    tap = make_tap(cfg, rng)
    run_stage1_bb84(cfg, rng, tap)
    frac = len(tap.record) / cfg.n_pulses
    assert abs(frac - 0.005) < 3 * binomial_sigma(0.005, cfg.n_pulses)


def test_split_guesses_perfect_in_revealed_basis_despite_noise():
    # Eve's copy is diverted before channel noise, so her readout in the
    # revealed alphabet matches the sender's bit exactly.
    cfg = SessionConfig(
        "bb84",
        20_000,
        noise=NoiseModel(flip_p=0.05, multi_p=0.01),
        eve=PhotonSplitEve(),
        seed=93,
    )
    rng = Rng(cfg.seed)
    tap = make_tap(cfg, rng)
    record = run_stage1_bb84(cfg, rng, tap)
    transcript = PublicTranscript()
    sift = sift_bb84(record, transcript)
    guesses = eve_guess(tap, transcript)
    assert guesses, "expected some recorded sifted slots"
    alice = dict(zip(sift.slots, sift.raw_alice))
    assert all(alice[s] == b for s, (b, conf) in guesses.items())
    assert all(conf == 1.0 for _, (_, conf) in guesses.items())


def test_eve_guess_empty_without_entries():
    tap = EveTap(OpaqueEve(1.0), "bb84", Rng(0))
    transcript = PublicTranscript()
    transcript.post("bob", "alphabets", "+")
    transcript.post("alice", "kept", "0")
    assert eve_guess(tap, transcript) == {}


def test_eve_guess_empty_without_sifting_announcement():
    # Eve holds an outcome, but no sifted slot has been announced yet.
    tap = EveTap(OpaqueEve(1.0), "bb84", Rng(0))
    tap.apply(0, 1, VERTICAL)
    assert len(tap.record) == 1
    assert eve_guess(tap, PublicTranscript()) == {}


def test_eve_guess_reproducible_from_record_and_transcript():
    cfg = SessionConfig("b92", 20_000, eve=translucent_swap_attack(THETA), seed=94, r_max=1.0)
    report = run_session(cfg)
    transcript = session_transcript(report)
    # Rebuild the tap record by replaying the same seed.
    rng = Rng(cfg.seed)
    tap = make_tap(cfg, rng)
    record = run_stage1_b92(cfg, rng, tap)
    replay_transcript = PublicTranscript()
    sift = sift_b92(record, replay_transcript)
    first = eve_guess(tap, transcript)
    second = eve_guess(tap, transcript)
    assert first == second
    alice = dict(zip(sift.slots, sift.raw_alice))
    accuracy = sum(1 for s, (b, _) in first.items() if alice.get(s) == b) / len(first)
    assert accuracy == pytest.approx(report.eve_guess_accuracy)


# Every sifted slot's guess and confidence, hashed, for each kind of tap.
_GUESS_PINS = [
    (
        "bb84", OpaqueEve(0.5), NoiseModel(flip_p=0.02), 101,
        "b71cf126f211221af73c76fd18db4ad0fd27d6546f94bac5cbd20d98f7bc2747",
    ),
    (
        "b92", OpaqueEve(0.5), NoiseModel(flip_p=0.02), 102,
        "12bff06b9435d96258150da02172b2d081b01a4f515a6512a320cf13a8f4f2b8",
    ),
    (
        "bb84", PhotonSplitEve(), NoiseModel(loss_p=0.1, multi_p=0.05), 103,
        "623e677a7eb8431812f186da4050620d27da241344a713887152150a3aeee155",
    ),
    (
        "b92", PhotonSplitEve(), NoiseModel(loss_p=0.1, multi_p=0.05), 104,
        "c1687632dde5f30d3b80e7377cb03cb1a30ebc36e1cb07425df973cc6ce5a8d6",
    ),
    (
        "b92", translucent_swap_attack(THETA), NoiseModel(loss_p=0.1), 105,
        "d99d02135d3c140523765310bfe3e161d1011d358cd6f7a7a61801c4e97b1788",
    ),
    (
        "b92", entangling_swap_attack(THETA), NoiseModel(loss_p=0.1), 106,
        "c19926bcb2581a4eecea1c537082e3e904862d2309d304218e97b750df6112e0",
    ),
]


@pytest.mark.parametrize(
    "protocol,strategy,noise,seed,sha256",
    _GUESS_PINS,
    ids=[f"{protocol}-{strategy.label}" for protocol, strategy, *_ in _GUESS_PINS],
)
def test_eve_guess_is_pinned(protocol, strategy, noise, seed, sha256):
    cfg = SessionConfig(protocol, 3000, theta=THETA, noise=noise, eve=strategy, seed=seed)
    rng = Rng(cfg.seed)
    tap = make_tap(cfg, rng)
    transcript = PublicTranscript()
    if protocol == "bb84":
        sift_bb84(run_stage1_bb84(cfg, rng, tap), transcript)
    else:
        sift_b92(run_stage1_b92(cfg, rng, tap), transcript)
    guesses = eve_guess(tap, transcript)
    assert len(guesses) > 20
    text = "".join(f"{slot} {int(bit)} {float(conf)!r}\n" for slot, (bit, conf) in sorted(guesses.items()))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == sha256


def test_b92_opaque_menu_outcomes():
    # Orthogonal-outcome draws identify the other code state with certainty.
    tap = EveTap(OpaqueEve(1.0), "b92", Rng(95), theta=THETA)
    alpha = b92_alphabet(THETA)
    n = 4000
    sure_wrong = 0
    for slot in range(n):
        bit = slot % 2
        tap.apply(slot, 1, alpha[bit])
        choice, guess = tap.record[slot]
        # A "definitely not plus" outcome can never follow a plus transmission.
        if choice == "p" and guess == 0 and bit == 1:
            sure_wrong += 1
        if choice == "m" and guess == 1 and bit == 0:
            sure_wrong += 1
    assert sure_wrong == 0


def test_b92_opaque_guess_confidence():
    # The outcome along its basis's own code state is ambiguous; its orthogonal is certain.
    tap = EveTap(OpaqueEve(1.0), "b92", Rng(0), theta=THETA)
    tap.record.update(enumerate([("p", 1), ("p", 0), ("m", 0), ("m", 1)]))
    transcript = PublicTranscript()
    transcript.post("bob", "conclusive", "0,1,2,3")
    ambiguous = 1.0 / (1.0 + math.cos(2 * THETA) ** 2)
    assert eve_guess(tap, transcript) == {
        0: (1, pytest.approx(ambiguous)),
        1: (0, 1.0),
        2: (0, pytest.approx(ambiguous)),
        3: (1, 1.0),
    }
