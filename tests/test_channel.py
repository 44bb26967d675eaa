"""Channel behavior: pulse emission, noise effects, transcript mechanics."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    emit_pulse,
    flip_state,
    inner,
    measure_projective,
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
from qkdsim.channel import Message
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
        if measure_projective(out.state, alphabet.code_states, rng)[0] != bit:
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
    history = list(t)
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


class MessageTranscript:
    """One stored message per post, hashed when the digest is asked for: the oracle."""

    def __init__(self):
        self._messages = []

    def post(self, sender, tag, payload):
        self._messages.append(Message(sender, tag, payload))

    def __iter__(self):
        return iter(self._messages)

    def find(self, sender, tag):
        for msg in self._messages:
            if msg.sender == sender and msg.tag == tag:
                return msg
        return None

    def serialize(self):
        return "".join(msg.line() for msg in self._messages)

    def digest(self):
        sha = hashlib.sha256()
        for msg in self._messages:
            sha.update(msg.line().encode("utf-8"))
        return sha.hexdigest()

    def __len__(self):
        return len(self._messages)


_SENDERS = st.sampled_from(["alice", "bob"])
_TAGS = st.sampled_from(["kept", "parity", "pa-subset"])
_INDICES = st.lists(st.integers(0, 20_000), min_size=1, max_size=12).map(lambda row: ",".join(map(str, row)))
_CHUNK_LINES = st.one_of(
    st.lists(_INDICES, max_size=6),
    st.lists(_INDICES, min_size=1, max_size=1),  # a one-line chunk
    st.lists(st.integers(0, 20_000).map(str), min_size=1, max_size=6),  # rows of one index
    st.lists(st.text("0123456789,", max_size=30), max_size=6),
)
_POSTS = st.lists(
    st.one_of(
        st.tuples(st.just("post"), _SENDERS, _TAGS, st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)),
        st.tuples(st.just("lines"), _SENDERS, _TAGS, _CHUNK_LINES),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(posts=_POSTS)
def test_transcript_matches_per_message_oracle(posts):
    fast, oracle = PublicTranscript(), MessageTranscript()
    for kind, sender, tag, body in posts:
        if kind == "post":
            fast.post(sender, tag, body)
            oracle.post(sender, tag, body)
        else:
            text = "".join(f"{line}\n" for line in body).encode("ascii")
            fast.post_lines(sender, tag, lambda text=text: text)
            for line in body:
                oracle.post(sender, tag, line)
    assert fast.digest() == hashlib.sha256(fast.serialize().encode("utf-8")).hexdigest()
    assert fast.digest() == oracle.digest()
    assert fast.serialize() == oracle.serialize()
    assert list(fast) == list(oracle)
    assert len(fast) == len(oracle)
    for sender in ("alice", "bob"):
        for tag in ("kept", "parity", "pa-subset", "abort"):
            assert fast.find(sender, tag) == oracle.find(sender, tag)
