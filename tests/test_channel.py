"""Channel behavior: pulse emission, noise effects, transcript mechanics."""

import math

import pytest

from qkdsim import (
    Ket2,
    Ket4,
    NoiseModel,
    PublicTranscript,
    Pulse,
    Rng,
    SessionConfig,
    apply_unitary,
    b92_alphabet,
    build_povm,
    decode_by_basis,
    emit_pulse,
    flip_state,
    inner,
    oblique_alphabet,
    polarization,
    povm_probabilities,
    rotation,
    run_session,
    session_transcript,
    states_equal,
    transmit,
    vh_alphabet,
)
from util import binomial_sigma, rand_ket

VERTICAL = Ket2(1, 0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(flip_p=1.5)
    with pytest.raises(ValueError):
        NoiseModel(loss_p=-0.1)


def test_pulse_invariants():
    with pytest.raises(ValueError):
        Pulse(0, 0, VERTICAL)
    with pytest.raises(ValueError):
        Pulse(0, 2, Ket4(1, 0, 0, 0))


def test_emit_single_photon_when_multi_zero():
    rng = Rng(70)
    noise = NoiseModel()
    for slot in range(1000):
        pulse = emit_pulse(slot, VERTICAL, noise, rng)
        assert pulse.photons == 1
        assert pulse.state is VERTICAL
        assert pulse.slot == slot


def test_emit_two_photon_fraction():
    rng = Rng(71)
    noise = NoiseModel(multi_p=1 / 200)
    n = 1_000_000
    doubles = sum(1 for i in range(n) if emit_pulse(i, VERTICAL, noise, rng).photons == 2)
    assert abs(doubles / n - 0.005) < 0.0005


def test_identity_channel():
    rng = Rng(72)
    noise = NoiseModel()
    for _ in range(10_000):
        pulse = Pulse(3, 1, rand_ket(rng))
        out = transmit(pulse, noise, None, rng)
        assert out is pulse


def test_loss_certain():
    rng = Rng(73)
    noise = NoiseModel(loss_p=1.0)
    for _ in range(200):
        assert transmit(Pulse(0, 1, VERTICAL), noise, None, rng) is None


def test_flip_is_quarter_turn():
    # Scalar fast path must agree with the rotation matrix; the result is
    # orthogonal to the input for every *linear* polarization.
    rng = Rng(74)
    quarter = rotation(math.pi / 2)
    for _ in range(100):
        state = rand_ket(rng)
        assert states_equal(flip_state(state), apply_unitary(quarter, state), tol=1e-12)
        linear = polarization(rng.uniform() * math.pi)
        assert abs(inner(flip_state(linear), linear)) < 1e-12


def _matched_basis_error_rate(alphabet, flip_p, n, seed):
    rng = Rng(seed)
    noise = NoiseModel(flip_p=flip_p)
    errors = 0
    for slot in range(n):
        bit = rng.coin()
        pulse = emit_pulse(slot, alphabet.encode(bit), noise, rng)
        out = transmit(pulse, noise, None, rng)
        if decode_by_basis(alphabet, out.state, rng) != bit:
            errors += 1
    return errors / n


def test_flip_rate_equals_error_rate_projective_alphabets():
    # A 90-degree rotation takes each code state to its orthogonal
    # partner, so the matched-basis error rate equals flip_p.
    n = 100_000
    for seed, alpha in ((75, vh_alphabet()), (76, oblique_alphabet())):
        rate = _matched_basis_error_rate(alpha, 0.1, n, seed)
        assert abs(rate - 0.1) < 3 * binomial_sigma(0.1, n)


def test_flip_orthogonality_and_povm_effect_b92():
    # The flip is orthogonal to the B92 code states too, but the POVM
    # maps a flipped state to a *conclusive-conditional* error rate of
    # 1 / (1 + cos^2 2t), not flip_p; check sampling against the
    # quadratic-form oracle.
    t = math.pi / 8
    alpha = b92_alphabet(t)
    povm = build_povm(t)
    for bit in (0, 1):
        assert abs(inner(flip_state(alpha.encode(bit)), alpha.encode(bit))) < 1e-12
    flipped = flip_state(alpha.encode(1))
    p_zero, p_one, _ = povm_probabilities(flipped, povm)
    assert p_zero / (p_zero + p_one) == pytest.approx(1 / (1 + math.cos(2 * t) ** 2), abs=1e-12)


def test_transcript_append_and_read():
    t = PublicTranscript()
    t.post("alice", "kept", "1,2")
    t.post("bob", "parity", "0")
    history = t.read_all()
    assert len(history) == 2
    assert history[-1].sender == "bob" and history[-1].payload == "0"


def test_transcripts_are_distinct():
    t1, t2 = PublicTranscript(), PublicTranscript()
    t1.post("alice", "kept", "1")
    assert len(t2) == 0


def test_serialization_format():
    t = PublicTranscript()
    t.post("alice", "kept", "1,2")
    line = t.serialize()
    assert line == "alice\tkept\t" + "1,2".encode().hex() + "\n"
    assert len(t.digest()) == 64


def test_transcript_replay_determinism():
    cfg = SessionConfig("bb84", 2000, noise=NoiseModel(flip_p=0.02), seed=77)
    first = session_transcript(run_session(cfg)).serialize()
    second = session_transcript(run_session(cfg)).serialize()
    assert first == second
