"""Eavesdropping strategies, the channel tap that applies them, and Eve's bookkeeping.

Four attack families are modeled:

* **Opaque** -- intercept a fraction of pulses, measure each in a
  randomly chosen basis, and resend the measured state.
* **Translucent (unitary)** -- couple a probe to the carrier without
  entangling them: each code state is forwarded in a fixed modified
  state while the probe picks up a code-dependent state.
* **Translucent (entangling)** -- the general unitary coupling whose
  output mixes both forwarded carrier states with amplitudes ``a, b``.
  Its output is still a product of carrier and probe, so the tap
  forwards a qubit and keeps the probe, as the unitary form does.
* **Photon-number splitting** -- divert one photon from any
  multi-photon pulse and store it, touching nothing else.

Translucent parameters are user-supplied and validated for unitarity
(:func:`validate_interaction`) rather than optimized: the attack family
is the model, not any particular "best" attack.  Eve defers all probe
and stored-photon measurements until the public transcript has revealed
sifting, which can only help her; :func:`eve_guess` performs those
measurements and therefore needs nothing but her record and the
transcript.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .alphabets import b92_alphabet, oblique_alphabet, vh_alphabet
from .channel import Pulse
from .errors import NotUnitary, StateNotInAlphabet
from .quantum import Ket2, inner, measure_projective, states_equal
from .rng import Rng

INTERACTION_TOL = 1e-8
AMPLITUDE_TOL = 1e-10


@dataclass(frozen=True)
class NoEve:
    """No tap at all."""


@dataclass(frozen=True)
class OpaqueEve:
    """Intercept-measure-resend on a fraction of pulses."""

    fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction!r}")


@dataclass(frozen=True, eq=False)
class TranslucentEve:
    """Unitary probe coupling without entanglement, defined on the +-theta code states.

    ``out_plus``/``out_minus`` are the forwarded carrier states,
    ``probe_plus``/``probe_minus`` the probe states left behind.
    """

    theta: float
    out_plus: Ket2
    out_minus: Ket2
    probe_plus: Ket2
    probe_minus: Ket2


@dataclass(frozen=True, eq=False)
class EntanglingEve:
    """Entangling probe coupling on the +-theta code states.

    The plus code state is forwarded as ``(a |out+> + b |out->)`` with
    probe state ``probe_plus``; the minus code state as
    ``(b |out+> + a |out->)`` with ``probe_minus``.
    """

    theta: float
    a: complex
    b: complex
    out_plus: Ket2
    out_minus: Ket2
    probe_plus: Ket2
    probe_minus: Ket2


@dataclass(frozen=True)
class PhotonSplitEve:
    """Divert one photon of every multi-photon pulse for later measurement."""


# Record entry kinds.
OPAQUE = "opaque"
SPLIT = "split"
PROBE = "probe"


class EveRecord:
    """Per-slot log of what Eve did and, where applicable, what she holds.

    Carries enough context (protocol, theta, strategy) for
    :func:`eve_guess` to work from the record and the public transcript
    alone.  At most one entry per slot.
    """

    def __init__(self, strategy, protocol: str, theta: float | None):
        self.strategy = strategy
        self.protocol = protocol
        self.theta = theta
        self.entries = {}

    def add(self, slot: int, kind: str, *data) -> None:
        if slot in self.entries:
            raise ValueError(f"slot {slot} already recorded")
        self.entries[slot] = (kind, *data)

    def __len__(self):
        return len(self.entries)


def _entangled_carriers(strategy: EntanglingEve):
    """Unnormalised forwarded carriers ``a|out+> + b|out->`` and ``b|out+> + a|out->``."""
    plus, minus = strategy.out_plus.vec, strategy.out_minus.vec
    return strategy.a * plus + strategy.b * minus, strategy.b * plus + strategy.a * minus


def validate_interaction(strategy) -> None:
    """Check that a translucent interaction could be a unitary.

    A unitary preserves inner products, so the two outputs must have
    unit norm and overlap equal to the code-state overlap cos(2 theta).

    Raises
    ------
    NotUnitary
        With the violated quantity in the message.
    """
    overlap_in = math.cos(2.0 * strategy.theta)
    if isinstance(strategy, TranslucentEve):
        carrier_overlap = inner(strategy.out_plus, strategy.out_minus)
    elif isinstance(strategy, EntanglingEve):
        amp_norm = abs(strategy.a) ** 2 + abs(strategy.b) ** 2
        if abs(amp_norm - 1.0) > AMPLITUDE_TOL:
            raise NotUnitary(f"|a|^2 + |b|^2 = {amp_norm:.12f}, expected 1")
        fp, fm = _entangled_carriers(strategy)
        norm_p = float(np.linalg.norm(fp))
        norm_m = float(np.linalg.norm(fm))
        if abs(norm_p - 1.0) > AMPLITUDE_TOL or abs(norm_m - 1.0) > AMPLITUDE_TOL:
            raise NotUnitary(f"output norms ({norm_p:.12f}, {norm_m:.12f}) are not 1")
        carrier_overlap = complex(fp.conj() @ fm)
    else:
        raise TypeError(f"not a translucent strategy: {type(strategy).__name__}")
    overlap_out = carrier_overlap * inner(strategy.probe_plus, strategy.probe_minus)
    if abs(overlap_out - overlap_in) > INTERACTION_TOL:
        raise NotUnitary(
            f"output overlap {overlap_out:.8f} differs from input overlap {overlap_in:.8f}"
        )


def identity_translucent(theta: float) -> TranslucentEve:
    """The do-nothing unitary coupling: carrier untouched, probe independent of the bit."""
    alpha = b92_alphabet(theta)
    probe = Ket2(1.0, 0.0)
    return TranslucentEve(theta, alpha.encode(1), alpha.encode(0), probe, probe)


def translucent_swap_attack(theta: float) -> TranslucentEve:
    """Move all code-state distinguishability into the probe.

    Both code states are forwarded as the reference (vertical) state;
    the probes inherit the full cos(2 theta) overlap, the most
    distinguishable pair unitarity allows when the carrier is erased.
    """
    fixed = Ket2(1.0, 0.0)
    alpha = b92_alphabet(theta)
    strategy = TranslucentEve(theta, fixed, fixed, alpha.encode(1), alpha.encode(0))
    validate_interaction(strategy)
    return strategy


def entangling_swap_attack(theta: float) -> EntanglingEve:
    """Entangling coupling with orthogonal forwarded states and equal amplitudes.

    With a = b = 1/sqrt(2) and orthogonal out states, unitarity pins the
    probe overlap at cos(2 theta); solving those constraints numerically
    lands on the same probe pair as the unitary swap attack.
    """
    amp = math.sqrt(0.5)
    alpha = b92_alphabet(theta)
    strategy = EntanglingEve(
        theta,
        amp,
        amp,
        Ket2(1.0, 0.0),
        Ket2(0.0, 1.0),
        alpha.encode(1),
        alpha.encode(0),
    )
    validate_interaction(strategy)
    return strategy


class EveTap:
    """Channel tap: applies one strategy pulse by pulse and keeps the record."""

    def __init__(self, strategy, protocol: str, rng: Rng, theta: float | None = None):
        self.strategy = strategy
        self.protocol = protocol
        self.rng = rng
        self.record = EveRecord(strategy, protocol, theta)
        if protocol == "bb84":
            self._menu = {"+": vh_alphabet().basis, "x": oblique_alphabet().basis}
        else:
            alpha = b92_alphabet(theta)
            plus, minus = alpha.encode(1), alpha.encode(0)
            # Outcome index doubles as Eve's bit guess in either basis:
            # seeing the plus state suggests 1, seeing its orthogonal proves 0,
            # and symmetrically for the minus-generated basis.
            self._menu = {
                "p": (plus.orthogonal(), plus),
                "m": (minus, minus.orthogonal()),
            }
            self._code = (minus, plus)
        if isinstance(strategy, (TranslucentEve, EntanglingEve)):
            if protocol != "b92":
                raise ValueError("translucent taps are defined only on the B92 code states")
            validate_interaction(strategy)
            if isinstance(strategy, TranslucentEve):
                forwarded = (strategy.out_minus, strategy.out_plus)
            else:
                fp, fm = _entangled_carriers(strategy)
                forwarded = (Ket2(*fm), Ket2(*fp))
            # (forwarded carrier, probe left behind), indexed by the code bit.
            self._translucent = tuple(zip(forwarded, (strategy.probe_minus, strategy.probe_plus)))

    def apply(self, pulse: Pulse) -> Pulse:
        s = self.strategy
        if isinstance(s, NoEve):
            return pulse
        if isinstance(s, OpaqueEve):
            return self._apply_opaque(pulse, s)
        if isinstance(s, PhotonSplitEve):
            return self._apply_split(pulse)
        return self._apply_translucent(pulse)

    def _apply_opaque(self, pulse: Pulse, s: OpaqueEve) -> Pulse:
        if self.rng.uniform() >= s.fraction:
            return pulse
        # Basis choice by fair coin; coin 1 picks the first menu entry.
        keys = sorted(self._menu)
        choice = keys[1] if self.rng.coin() else keys[0]
        basis = self._menu[choice]
        bit, collapsed = measure_projective(pulse.state, basis, self.rng)
        self.record.add(pulse.slot, OPAQUE, choice, bit)
        return Pulse(pulse.slot, pulse.photons, collapsed)

    def _apply_split(self, pulse: Pulse) -> Pulse:
        if pulse.photons < 2:
            return pulse
        self.record.add(pulse.slot, SPLIT, pulse.state)
        return Pulse(pulse.slot, pulse.photons - 1, pulse.state)

    def _apply_translucent(self, pulse: Pulse) -> Pulse:
        state = pulse.state
        minus, plus = self._code
        if states_equal(state, plus):
            branch = 1
        elif states_equal(state, minus):
            branch = 0
        else:
            raise StateNotInAlphabet(f"incoming state {state!r} is not a +-theta code state")
        forwarded, probe = self._translucent[branch]
        self.record.add(pulse.slot, PROBE, probe)
        return Pulse(pulse.slot, pulse.photons, forwarded)


def discrimination_measurement(s0: Ket2, s1: Ket2):
    """Best projective measurement for telling two pure states apart.

    Numerically diagonalizes the difference of the two projectors; the
    positive eigendirection votes for ``s1``.  Returns the bit-ordered
    basis pair and the success probability (1 + sqrt(1 - |<s0|s1>|^2))/2
    achieved on an equal prior.
    """
    diff = np.outer(s1.vec, s1.vec.conj()) - np.outer(s0.vec, s0.vec.conj())
    _, vecs = np.linalg.eigh(diff)  # ascending eigenvalues
    guess0 = Ket2(vecs[0, 0], vecs[1, 0])
    guess1 = Ket2(vecs[0, 1], vecs[1, 1])
    overlap = abs(inner(s0, s1))
    success = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - overlap * overlap)))
    return (guess0, guess1), success


def _transcript_rng(transcript) -> Rng:
    # Seed from the sifting announcements only, so the derived stream is
    # identical whether the guesses run mid-session or from a replayed
    # transcript later.
    sift_lines = "".join(
        msg.line() for msg in transcript.read_all() if msg.tag in ("alphabets", "kept", "conclusive")
    )
    digest = hashlib.sha256(sift_lines.encode("utf-8")).digest()
    return Rng(int.from_bytes(digest[:8], "big"))


def _sifted_slots(transcript):
    conclusive = transcript.find("bob", "conclusive")
    if conclusive is not None:
        slots = [int(x) for x in conclusive.payload.split(",") if x]
        return slots, None
    kept = transcript.find("alice", "kept")
    alphabets = transcript.find("bob", "alphabets")
    if kept is None or alphabets is None:
        return [], None
    slots = [int(x) for x in kept.payload.split(",") if x]
    return slots, alphabets.payload


def eve_guess(record: EveRecord, transcript, rng: Rng | None = None):
    """Eve's bit guess and confidence for every sifted slot she acted on.

    Deferred measurements (stored photons, probes) are performed here.
    The default measurement randomness is seeded from the transcript
    digest, so rerunning with the same record and transcript reproduces
    the same guesses.

    Returns
    -------
    dict slot -> (bit, confidence)
    """
    if rng is None:
        rng = _transcript_rng(transcript)
    slots, alphabet_chars = _sifted_slots(transcript)
    guesses = {}
    if not record.entries:
        return guesses

    menus = {"+": vh_alphabet(), "x": oblique_alphabet()}
    if record.protocol == "b92":
        alpha = b92_alphabet(record.theta)
        code_pair = (alpha.encode(0), alpha.encode(1))
        code_overlap_sq = abs(inner(code_pair[0], code_pair[1])) ** 2

    for slot in slots:
        entry = record.entries.get(slot)
        if entry is None:
            continue
        kind = entry[0]
        if kind == OPAQUE and record.protocol == "bb84":
            choice, bit = entry[1], entry[2]
            if alphabet_chars is not None and alphabet_chars[slot] == choice:
                guesses[slot] = (bit, 1.0)
            else:
                # Wrong basis: the outcome carries no information.
                guesses[slot] = (bit, 0.5)
        elif kind == OPAQUE:
            choice, bit = entry[1], entry[2]
            # In the plus-generated basis, the orthogonal outcome (bit 0)
            # excludes the plus state outright; symmetrically for minus.
            if choice == "p":
                conf = 1.0 / (1.0 + code_overlap_sq) if bit == 1 else 1.0
            else:
                conf = 1.0 / (1.0 + code_overlap_sq) if bit == 0 else 1.0
            guesses[slot] = (bit, conf)
        elif kind == SPLIT and record.protocol == "bb84":
            if alphabet_chars is None:
                continue
            basis = menus[alphabet_chars[slot]].basis
            bit, _ = measure_projective(entry[1], basis, rng)
            guesses[slot] = (bit, 1.0)
        elif kind == SPLIT:
            basis, success = discrimination_measurement(*code_pair)
            bit, _ = measure_projective(entry[1], basis, rng)
            guesses[slot] = (bit, success)
        elif kind == PROBE:
            s = record.strategy
            basis, success = discrimination_measurement(s.probe_minus, s.probe_plus)
            bit, _ = measure_projective(entry[1], basis, rng)
            guesses[slot] = (bit, success)
    return guesses
