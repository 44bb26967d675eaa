"""Channel behavior: photon emission, noise effects, transcript mechanics."""

import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdsim import (
    Ket2,
    NoiseModel,
    PhotonSplitEve,
    PublicTranscript,
    Rng,
    SessionConfig,
    apply_unitary,
    b92_alphabet,
    build_povm,
    inner,
    measure_povm,
    measure_projective,
    oblique_alphabet,
    polarization,
    povm_probabilities,
    rotation,
    run_session,
    states_equal,
    transmit,
    vh_alphabet,
)
from qkdsim.channel import Message, flip_state
from qkdsim.errors import DimensionMismatch
from qkdsim.eve import EveTap
from qkdsim.protocol import session_transcript
from qkdsim.quantum import Ket4
from util import binomial_sigma, rand_ket

VERTICAL = Ket2(1, 0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(flip_p=1.5)
    with pytest.raises(ValueError):
        NoiseModel(loss_p=-0.1)


def test_measure_povm_refuses_a_non_qubit_state():
    # The B92 receiver reads whatever state the channel delivers: anything
    # but a qubit is refused before any arithmetic.
    with pytest.raises(DimensionMismatch):
        measure_povm(Ket4(1, 0, 0, 0), build_povm(math.pi / 8), Rng(1))


def test_emit_single_photon_when_multi_zero():
    # A splitting tap records exactly the slots the source gave two photons.
    rng = Rng(70)
    noise = NoiseModel()
    tap = EveTap(PhotonSplitEve(), "bb84", rng)
    for slot in range(1000):
        assert transmit(slot, VERTICAL, noise, tap, rng) is VERTICAL
    assert len(tap.record) == 0


def test_emit_two_photon_fraction():
    rng = Rng(71)
    noise = NoiseModel(multi_p=1 / 200)
    tap = EveTap(PhotonSplitEve(), "bb84", rng)
    n = 1_000_000
    for slot in range(n):
        transmit(slot, VERTICAL, noise, tap, rng)
    doubles = len(tap.record)
    assert abs(doubles / n - 0.005) < 0.0005


@pytest.mark.parametrize("multi_p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("flip_p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("loss_p", [0.0, 0.5, 1.0])
def test_transmit_keeps_the_stream_aligned(multi_p, flip_p, loss_p):
    # Source, flip and loss each take one draw per slot, whatever their odds.
    n = 500
    noise = NoiseModel(flip_p=flip_p, loss_p=loss_p, multi_p=multi_p)
    rng, reference = Rng(79), Rng(79)
    for slot in range(n):
        transmit(slot, VERTICAL, noise, None, rng)
    for _ in range(3 * n):
        reference.uniform()
    assert rng._random.__self__.getstate() == reference._random.__self__.getstate()


def test_identity_channel():
    rng = Rng(72)
    noise = NoiseModel()
    for _ in range(10_000):
        state = rand_ket(rng)
        out = transmit(3, state, noise, None, rng)
        assert out is state


def test_loss_certain():
    rng = Rng(73)
    noise = NoiseModel(loss_p=1.0)
    for _ in range(200):
        assert transmit(0, VERTICAL, noise, None, rng) is None


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
        out = transmit(slot, alphabet[bit], noise, None, rng)
        if measure_projective(out, alphabet, rng)[0] != bit:
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
        assert abs(inner(flip_state(alpha[bit]), alpha[bit])) < 1e-12
    flipped = flip_state(alpha[1])
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
_PAYLOADS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
_POSTS = st.lists(
    st.one_of(
        st.tuples(st.just("post"), _SENDERS, _TAGS, _PAYLOADS),
        st.tuples(st.just("lines"), _SENDERS, _TAGS, _CHUNK_LINES),
        # A run of built messages, some of them one object posted again.
        st.tuples(
            st.just("run"),
            st.none(),
            st.none(),
            st.lists(st.builds(Message, _SENDERS, _TAGS, _PAYLOADS), max_size=4).flatmap(
                lambda built: st.lists(st.sampled_from(built), max_size=12) if built else st.just([])
            ),
        ),
    ),
    max_size=12,
)


def _hexed(lines):
    """A renderer for post_lines: each line's hex, cut in two at a byte boundary."""

    def hexed():
        for line in lines:
            text = memoryview(line.encode("ascii").hex().encode("ascii"))
            cut = len(text) // 4 * 2
            yield [text[:cut], text[cut:]]

    return hexed


_PARITIES = [Message("alice", "parity", "1"), Message("bob", "parity", "0")]


@settings(max_examples=200, deadline=None)
@given(posts=_POSTS)
# A run of two messages posted three times each, and an empty run, which posts nothing.
@example(posts=[("post", "alice", "perm", "2,0,1"), ("run", None, None, _PARITIES * 3), ("run", None, None, [])])
def test_transcript_matches_per_message_oracle(posts):
    fast, oracle = PublicTranscript(), MessageTranscript()
    for kind, sender, tag, body in posts:
        if kind == "post":
            fast.post(sender, tag, body)
            oracle.post(sender, tag, body)
        elif kind == "lines":
            fast.post_lines(sender, tag, _hexed(body))
            for line in body:
                oracle.post(sender, tag, line)
        else:
            fast.post_messages(body)
            for msg in body:
                oracle.post(msg.sender, msg.tag, msg.payload)
    assert fast.digest() == hashlib.sha256(fast.serialize().encode("utf-8")).hexdigest()
    assert fast.digest() == oracle.digest()
    assert fast.serialize() == oracle.serialize()
    assert list(fast) == list(oracle)
    assert len(fast) == len(oracle)
    for sender in ("alice", "bob"):
        for tag in ("kept", "parity", "pa-subset", "abort"):
            assert fast.find(sender, tag) == oracle.find(sender, tag)


def test_post_lines_renders_once_per_post_and_per_read():
    renders = []

    def hexed():
        renders.append("chunk")
        yield [b"312c", b"32"]  # "1,2"
        yield [b"33"]  # "3"

    def nothing():
        renders.append("empty")
        return iter(())

    t = PublicTranscript()
    t.post_lines("alice", "pa-subset", hexed)
    assert renders == ["chunk"] and len(t) == 2
    lines = b"alice\tpa-subset\t312c32\nalice\tpa-subset\t33\n"
    assert t.digest() == hashlib.sha256(lines).hexdigest()
    assert renders == ["chunk"]
    # A renderer that yields no message posts no entry and hashes nothing.
    t.post_lines("bob", "pa-subset", nothing)
    assert renders == ["chunk", "empty"] and len(t) == 2
    assert t.digest() == hashlib.sha256(lines).hexdigest()
    assert [msg.payload for msg in t] == ["1,2", "3"]
    assert renders == ["chunk", "empty", "chunk"]
    assert t.serialize().encode("utf-8") == lines
    assert t.find("alice", "pa-subset") == Message("alice", "pa-subset", "1,2")
    assert t.find("bob", "pa-subset") is None
    assert renders == ["chunk", "empty", "chunk", "chunk", "chunk"]

