"""Eavesdropping strategies, the channel tap that applies them, and Eve's guesses.

Four attack families are modeled:

* **Opaque** -- intercept a fraction of pulses, measure each in a
  randomly chosen basis, and resend the measured state.
* **Translucent (unitary)** -- couple a probe to the carrier without
  entangling them: each code state is forwarded in a fixed modified
  state while the probe picks up a code-dependent state.
* **Translucent (entangling)** -- the general unitary coupling whose
  output mixes both forwarded carrier states with amplitudes ``a, b``.
  Its output is still a product of carrier and probe.
* **Photon-number splitting** -- divert one photon from any
  multi-photon pulse and store it, touching nothing else.

Each strategy class declares its ``label``, the name that ``qkdsim run
--eve`` accepts and the report echoes.  Both translucent forms declare
one ``coupling`` table of (forwarded carrier, probe) qubits, indexed by
the code bit, which the tap, the unitarity check and Eve's probe
measurement all read.

Translucent parameters are user-supplied and validated for unitarity
(:func:`validate_interaction`) rather than optimized: the attack family
is the model, not any particular "best" attack.  Eve defers all probe
and stored-photon measurements until the public transcript has revealed
sifting, which can only help her; :func:`eve_guess` performs those
measurements and therefore needs nothing but her tap and the
transcript.  The tap decides once, when it is built, both how Eve acts
on a pulse and how she turns what she holds into a guess.
"""

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .alphabets import b92_alphabet, oblique_alphabet, vh_alphabet
from .channel import Pulse
from .errors import NotUnitary, StateNotInAlphabet
from .quantum import Basis, Ket2, inner, measure_projective, states_equal
from .rng import Rng

INTERACTION_TOL = 1e-8
AMPLITUDE_TOL = 1e-10


@dataclass(frozen=True)
class NoEve:
    """No tap at all."""

    label: ClassVar[str] = "none"


@dataclass(frozen=True)
class OpaqueEve:
    """Intercept-measure-resend on a fraction of pulses."""

    label: ClassVar[str] = "opaque"
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

    label: ClassVar[str] = "translucent"
    theta: float
    out_plus: Ket2
    out_minus: Ket2
    probe_plus: Ket2
    probe_minus: Ket2

    @property
    def coupling(self):
        """(forwarded carrier, probe) pairs, indexed by the code bit."""
        return (self.out_minus, self.probe_minus), (self.out_plus, self.probe_plus)


@dataclass(frozen=True, eq=False)
class EntanglingEve:
    """Entangling probe coupling on the +-theta code states.

    The plus code state is forwarded as ``(a |out+> + b |out->)`` with
    probe state ``probe_plus``; the minus code state as
    ``(b |out+> + a |out->)`` with ``probe_minus``.
    """

    label: ClassVar[str] = "entangle"
    theta: float
    a: complex
    b: complex
    out_plus: Ket2
    out_minus: Ket2
    probe_plus: Ket2
    probe_minus: Ket2

    def carriers(self):
        """Forwarded carrier vectors before normalisation, indexed by the code bit."""
        plus, minus = self.out_plus.vec, self.out_minus.vec
        return self.b * plus + self.a * minus, self.a * plus + self.b * minus

    @property
    def coupling(self):
        """(forwarded carrier, probe) pairs, indexed by the code bit."""
        carrier_minus, carrier_plus = self.carriers()
        return (Ket2(*carrier_minus), self.probe_minus), (Ket2(*carrier_plus), self.probe_plus)


@dataclass(frozen=True)
class PhotonSplitEve:
    """Divert one photon of every multi-photon pulse for later measurement."""

    label: ClassVar[str] = "pns"


_TRANSLUCENT = (TranslucentEve, EntanglingEve)


def is_translucent(strategy, protocol: str) -> bool:
    """Whether ``strategy`` is a probe coupling; ValueError if ``protocol`` is not B92."""
    if not isinstance(strategy, _TRANSLUCENT):
        return False
    if protocol != "b92":
        raise ValueError("translucent strategies apply to the b92 protocol only")
    return True


def validate_interaction(strategy) -> None:
    """Check that a translucent interaction could be a unitary.

    A unitary preserves inner products, so the two outputs must have
    unit norm and overlap equal to the code-state overlap cos(2 theta).

    Raises
    ------
    NotUnitary
        With the violated quantity in the message.
    """
    if not isinstance(strategy, _TRANSLUCENT):
        raise TypeError(f"not a translucent strategy: {type(strategy).__name__}")
    if isinstance(strategy, EntanglingEve):
        amp_norm = abs(strategy.a) ** 2 + abs(strategy.b) ** 2
        if not abs(amp_norm - 1.0) <= AMPLITUDE_TOL:
            raise NotUnitary(f"|a|^2 + |b|^2 = {amp_norm:.12f}, expected 1")
        norm_m, norm_p = (float(np.linalg.norm(vec)) for vec in strategy.carriers())
        if not (abs(norm_p - 1.0) <= AMPLITUDE_TOL and abs(norm_m - 1.0) <= AMPLITUDE_TOL):
            raise NotUnitary(f"output norms ({norm_p:.12f}, {norm_m:.12f}) are not 1")
    (out_minus, probe_minus), (out_plus, probe_plus) = strategy.coupling
    overlap_out = inner(out_plus, out_minus) * inner(probe_plus, probe_minus)
    overlap_in = math.cos(2.0 * strategy.theta)
    if not abs(overlap_out - overlap_in) <= INTERACTION_TOL:
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
    """Channel tap: applies one strategy pulse by pulse and keeps Eve's record.

    ``record`` maps each tapped slot to what Eve holds there: an opaque
    ``(choice, bit)`` outcome, a stored photon or a probe.  The one
    dispatch below fixes both how the tap acts on a pulse and the rule
    by which :func:`eve_guess` turns an entry into a guess.  There is no
    tap for :class:`NoEve`; ``protocol.make_tap`` builds none.

    Every check on a fixed value runs once, here: a translucent
    coupling's unitarity (:func:`validate_interaction`), and the
    orthogonality of the opaque tap's measurement bases and of the
    Helstrom basis, each built as a :class:`~qkdsim.quantum.Basis`.  Per
    pulse, the translucent tap looks its row up by the pulse state's
    exact amplitudes, which every emitted code state carries.  Any other
    state is matched by ``states_equal``, plus row first, and one that
    matches no row raises ``StateNotInAlphabet``.
    """

    def __init__(self, strategy, protocol: str, rng: Rng, theta: float | None = None):
        self.strategy = strategy
        self.rng = rng
        self.record = {}
        # Plain functions and partials over values, never bound methods or closures
        # over the tap: either would be a reference cycle, keeping a finished
        # session's tap and record until the cyclic collector runs.
        if isinstance(strategy, OpaqueEve):
            self._act = EveTap._apply_opaque
            # (choice, basis) pairs, indexed by the basis coin.
            if protocol == "bb84":
                self._menu = (("+", vh_alphabet().code_states), ("x", oblique_alphabet().code_states))
                self._guess = _guess_opaque_bb84
            else:
                alpha = b92_alphabet(theta)
                plus, minus = alpha.encode(1), alpha.encode(0)
                # Outcome index doubles as Eve's bit guess in either basis:
                # seeing the plus state suggests 1, seeing its orthogonal proves 0,
                # and symmetrically for the minus-generated basis.
                self._menu = (("m", Basis(minus, minus.orthogonal())), ("p", Basis(plus.orthogonal(), plus)))
                # The code states overlap by cos 2 theta.
                self._guess = functools.partial(_guess_opaque_b92, 1.0 / (1.0 + math.cos(2.0 * theta) ** 2))
        elif isinstance(strategy, PhotonSplitEve):
            self._act = EveTap._apply_split
            if protocol == "bb84":
                bases = {"+": vh_alphabet().code_states, "x": oblique_alphabet().code_states}
                self._guess = functools.partial(_guess_stored_bb84, bases)
            else:
                # A stored photon is in one of the code states.
                held = b92_alphabet(theta).code_states
                self._guess = functools.partial(_guess_helstrom, *discrimination_measurement(*held))
        elif is_translucent(strategy, protocol):
            validate_interaction(strategy)
            self._act = EveTap._apply_translucent
            alpha = b92_alphabet(theta)
            # Rows (code state, forwarded, probe), plus first: it wins if theta is below tolerance.
            self._table = tuple((alpha.encode(bit), *strategy.coupling[bit]) for bit in (1, 0))
            # The same rows by the code state's exact amplitudes, which every emitted
            # pulse carries.  A row equal within tolerance to an earlier one is left
            # out, so a pulse in its state still meets the earlier row in the table.
            self._rows = {}
            for i, (code_state, forwarded, probe) in enumerate(self._table):
                if not any(states_equal(code_state, earlier[0]) for earlier in self._table[:i]):
                    self._rows[code_state.a0, code_state.a1] = (forwarded, probe)
            # A probe is in one of the coupling's pair.
            held = tuple(probe for _, probe in strategy.coupling)
            self._guess = functools.partial(_guess_helstrom, *discrimination_measurement(*held))
        else:
            raise TypeError(f"no tap for {type(strategy).__name__}")

    def apply(self, pulse: Pulse) -> Pulse:
        return self._act(self, pulse)

    def _hold(self, slot: int, entry) -> None:
        if slot in self.record:
            raise ValueError(f"slot {slot} already recorded")
        self.record[slot] = entry

    def _apply_opaque(self, pulse: Pulse) -> Pulse:
        rng = self.rng
        if rng.uniform() >= self.strategy.fraction:
            return pulse
        choice, basis = self._menu[rng.coin()]
        bit, collapsed = measure_projective(pulse.state, basis, rng)
        self._hold(pulse.slot, (choice, bit))
        return Pulse(pulse.slot, pulse.photons, collapsed)

    def _apply_split(self, pulse: Pulse) -> Pulse:
        if pulse.photons < 2:
            return pulse
        self._hold(pulse.slot, pulse.state)
        return Pulse(pulse.slot, pulse.photons - 1, pulse.state)

    def _apply_translucent(self, pulse: Pulse) -> Pulse:
        state = pulse.state
        row = self._rows.get((state.a0, state.a1))
        if row is not None:
            forwarded, probe = row
            self._hold(pulse.slot, probe)
            return Pulse(pulse.slot, pulse.photons, forwarded)
        for code_state, forwarded, probe in self._table:
            if states_equal(state, code_state):
                self._hold(pulse.slot, probe)
                return Pulse(pulse.slot, pulse.photons, forwarded)
        raise StateNotInAlphabet(f"incoming state {pulse.state!r} is not a +-theta code state")


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
    return Basis(guess0, guess1), success


# Guess rules: (slot, entry, Bob's revealed alphabets, Eve's stream) -> (bit, confidence).


def _guess_opaque_bb84(slot, entry, alphabets, rng):
    # Measured in the wrong basis, the outcome carries no information.
    choice, bit = entry
    return bit, 1.0 if alphabets[slot] == choice else 0.5


def _guess_opaque_b92(ambiguous, slot, entry, alphabets, rng):
    # The outcome along the basis's own code state (bit 1 in the plus-generated
    # basis, bit 0 in the minus one) is ambiguous; its orthogonal excludes
    # that code state outright.
    return entry[1], ambiguous if entry in (("p", 1), ("m", 0)) else 1.0


def _guess_stored_bb84(bases, slot, state, alphabets, rng):
    # A stored photon, read in the basis Bob revealed.
    return measure_projective(state, bases[alphabets[slot]], rng)[0], 1.0


def _guess_helstrom(basis, success, slot, state, alphabets, rng):
    # One Helstrom measurement serves every deferred slot of the tap.
    return measure_projective(state, basis, rng)[0], success


def _read_sifting(transcript):
    """Sifted slots, Bob's revealed alphabets (None under B92) and Eve's stream.

    All three come from the sifting announcements: Bob's ``conclusive``
    slots under B92, Bob's ``alphabets`` and Alice's ``kept`` slots under
    BB84.  The stream is seeded from those messages' lines only, so it is
    the same whether the guesses run mid-session or from a replayed
    transcript later.  Nothing announced yet gives no slots.
    """
    conclusive = transcript.find("bob", "conclusive")
    if conclusive is not None:
        announced, alphabets = (conclusive,), None
    else:
        revealed, kept = transcript.find("bob", "alphabets"), transcript.find("alice", "kept")
        if revealed is None or kept is None:
            return [], None, None
        announced, alphabets = (revealed, kept), revealed.payload
    slots = [int(x) for x in announced[-1].payload.split(",") if x]
    digest = hashlib.sha256("".join(msg.line() for msg in announced).encode("utf-8")).digest()
    return slots, alphabets, Rng(int.from_bytes(digest[:8], "big"))


def eve_guess(tap: EveTap, transcript):
    """Eve's bit guess and confidence for every sifted slot she acted on.

    Deferred measurements (stored photons, probes) are performed here,
    by the guess rule the tap chose.  Their randomness is seeded from the
    transcript's sifting announcements, so rerunning with the same tap
    and transcript reproduces the same guesses.

    Returns
    -------
    dict slot -> (bit, confidence)
    """
    record = tap.record
    if not record:
        return {}
    slots, alphabets, rng = _read_sifting(transcript)
    guess = tap._guess
    return {slot: guess(slot, record[slot], alphabets, rng) for slot in slots if slot in record}
