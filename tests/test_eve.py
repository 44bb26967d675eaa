"""Eavesdropping strategies: taps, unitarity validation, and Eve's guesses."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import (
    EntanglingEve,
    EveRecord,
    EveTap,
    Ket2,
    Ket4,
    NoEve,
    NoiseModel,
    OpaqueEve,
    PhotonSplitEve,
    Pulse,
    Rng,
    SessionConfig,
    b92_alphabet,
    build_povm,
    discrimination_measurement,
    entangling_swap_attack,
    eve_guess,
    identity_translucent,
    inner,
    measure_povm,
    measure_povm_carrier,
    polarization,
    product_factors,
    run_session,
    run_stage1_bb84,
    run_stage1_b92,
    session_transcript,
    sift_bb84,
    sift_b92,
    states_equal,
    translucent_swap_attack,
    validate_interaction,
)
from qkdsim.channel import PublicTranscript
from qkdsim.errors import NotUnitary, StateNotInAlphabet
from qkdsim.protocol import make_tap
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
        pulse = Pulse(0, 1, polarization(0.3))
        assert tap.apply(pulse) is pulse
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
    recorded = [(slot, bit) for slot, (_, bit) in tap.record.entries.items() if slot in alice]
    agree = sum(1 for slot, bit in recorded if alice[slot] == bit) / len(recorded)
    assert abs(agree - 0.75) < 0.02
    guesses = eve_guess(tap.record, transcript)
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
    record = EveRecord(OpaqueEve(), "bb84", None)
    record.add(3, ("+", 1))
    with pytest.raises(ValueError, match="slot 3 already recorded"):
        record.add(3, ("x", 0))
    assert record.entries == {3: ("+", 1)}


def test_validate_identity_interaction():
    validate_interaction(identity_translucent(THETA))


def test_validate_rejects_non_translucent_strategy():
    with pytest.raises(TypeError, match="not a translucent strategy: OpaqueEve"):
        validate_interaction(OpaqueEve())


def test_validate_rejects_product_form_with_orthogonal_probes():
    # a=1, b=0 with orthogonal probes forces output overlap 0 != cos 2t.
    alpha = b92_alphabet(THETA)
    bad = EntanglingEve(
        THETA, 1.0, 0.0, alpha.encode(1), alpha.encode(0), Ket2(1, 0), Ket2(0, 1)
    )
    with pytest.raises(NotUnitary):
        validate_interaction(bad)


def test_validate_rejects_bad_amplitudes():
    ok = entangling_swap_attack(THETA)
    bad = EntanglingEve(THETA, 1.0, 1.0, ok.out_plus, ok.out_minus, ok.probe_plus, ok.probe_minus)
    with pytest.raises(NotUnitary):
        validate_interaction(bad)


def test_validate_rejects_carriers_of_wrong_norm():
    # |a|^2 + |b|^2 = 1, but equal out states add up to carriers of norm sqrt(2).
    ok = entangling_swap_attack(THETA)
    amp = math.sqrt(0.5)
    bad = EntanglingEve(THETA, amp, amp, ok.out_plus, ok.out_plus, ok.probe_plus, ok.probe_minus)
    with pytest.raises(NotUnitary, match="output norms"):
        validate_interaction(bad)


def test_validate_rejects_nan_amplitude():
    ok = entangling_swap_attack(THETA)
    bad = EntanglingEve(
        THETA, math.nan, ok.b, ok.out_plus, ok.out_minus, ok.probe_plus, ok.probe_minus
    )
    with pytest.raises(NotUnitary):
        validate_interaction(bad)


def test_translucent_strategies_refuse_bb84():
    # The session config and the tap share one rule: a coupling needs the B92 code states.
    for strategy in (translucent_swap_attack(THETA), entangling_swap_attack(THETA)):
        with pytest.raises(ValueError, match="b92 protocol only"):
            SessionConfig("bb84", 100, theta=THETA, eve=strategy)
        with pytest.raises(ValueError, match="b92 protocol only"):
            EveTap(strategy, "bb84", Rng(0), theta=THETA)


@pytest.mark.parametrize(
    "strategy,protocol",
    [(OpaqueEve(1.0), "bb84"), (PhotonSplitEve(), "bb84"), (translucent_swap_attack(THETA), "b92")],
)
def test_tap_is_freed_without_the_cycle_collector(strategy, protocol):
    # A tap that referenced itself would keep its record after the session
    # until a full collection, and a run of sessions would pile records up.
    tap = EveTap(strategy, protocol, Rng(0), theta=THETA)
    tap.apply(Pulse(0, 2, b92_alphabet(THETA).encode(1)))
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
        out = tap.apply(Pulse(bit, 1, alpha.encode(bit)))
        assert states_equal(out.state, alpha.encode(bit), tol=1e-12)


def test_translucent_rejects_non_code_state():
    tap = EveTap(translucent_swap_attack(THETA), "b92", Rng(87), theta=THETA)
    with pytest.raises(StateNotInAlphabet):
        tap.apply(Pulse(0, 1, VERTICAL))


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
    guesses = eve_guess(tap.record, transcript)
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
        out = tap.apply(Pulse(0, 1, alpha.encode(bit)))
        carrier, _ = product_factors(Ket4(*vec))
        assert isinstance(out.state, Ket2)
        assert states_equal(out.state, carrier, tol=1e-12)

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
    out = tap.apply(Pulse(0, 1, b92_alphabet(theta).encode(bit)))
    joint = Ket4(*_entangled_joint(strategy, bit))
    want, residual = measure_povm_carrier(joint, povm, Rng(seed))
    assert measure_povm(out.state, povm, Rng(seed)) == want
    assert states_equal(tap.record.entries[0], residual, tol=1e-12)


def test_split_leaves_single_photon_pulses_alone():
    tap = EveTap(PhotonSplitEve(), "bb84", Rng(90))
    pulse = Pulse(5, 1, VERTICAL)
    assert tap.apply(pulse) is pulse
    assert len(tap.record) == 0


def test_split_diverts_one_photon():
    tap = EveTap(PhotonSplitEve(), "bb84", Rng(91))
    out = tap.apply(Pulse(5, 2, VERTICAL))
    assert out.photons == 1
    assert states_equal(out.state, VERTICAL)
    assert states_equal(tap.record.entries[5], VERTICAL)


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
    guesses = eve_guess(tap.record, transcript)
    assert guesses, "expected some recorded sifted slots"
    alice = dict(zip(sift.slots, sift.raw_alice))
    assert all(alice[s] == b for s, (b, conf) in guesses.items())
    assert all(conf == 1.0 for _, (_, conf) in guesses.items())


def test_eve_guess_empty_without_entries():
    record = EveRecord(OpaqueEve(1.0), "bb84", None)
    transcript = PublicTranscript()
    assert eve_guess(record, transcript) == {}


def test_eve_guess_empty_without_sifting_announcement():
    # Eve holds an outcome, but no sifted slot has been announced yet.
    record = EveRecord(OpaqueEve(1.0), "bb84", None)
    record.add(0, ("+", 1))
    assert eve_guess(record, PublicTranscript()) == {}


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
    first = eve_guess(tap.record, transcript)
    second = eve_guess(tap.record, transcript)
    assert first == second
    alice = dict(zip(sift.slots, sift.raw_alice))
    accuracy = sum(1 for s, (b, _) in first.items() if alice.get(s) == b) / len(first)
    assert accuracy == pytest.approx(report.eve_guess_accuracy)


def test_b92_opaque_menu_outcomes():
    # Orthogonal-outcome draws identify the other code state with certainty.
    tap = EveTap(OpaqueEve(1.0), "b92", Rng(95), theta=THETA)
    alpha = b92_alphabet(THETA)
    n = 4000
    sure_wrong = 0
    for slot in range(n):
        bit = slot % 2
        tap.apply(Pulse(slot, 1, alpha.encode(bit)))
        choice, guess = tap.record.entries[slot]
        # A "definitely not plus" outcome can never follow a plus transmission.
        if choice == "p" and guess == 0 and bit == 1:
            sure_wrong += 1
        if choice == "m" and guess == 1 and bit == 0:
            sure_wrong += 1
    assert sure_wrong == 0


def test_b92_opaque_guess_confidence():
    # The outcome along its basis's own code state is ambiguous; its orthogonal is certain.
    record = EveRecord(OpaqueEve(1.0), "b92", THETA)
    entries = [("p", 1), ("p", 0), ("m", 0), ("m", 1)]
    for slot, (choice, bit) in enumerate(entries):
        record.add(slot, (choice, bit))
    transcript = PublicTranscript()
    transcript.post("bob", "conclusive", "0,1,2,3")
    ambiguous = 1.0 / (1.0 + math.cos(2 * THETA) ** 2)
    assert eve_guess(record, transcript) == {
        0: (1, pytest.approx(ambiguous)),
        1: (0, 1.0),
        2: (0, pytest.approx(ambiguous)),
        3: (1, 1.0),
    }
