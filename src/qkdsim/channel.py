"""The two channels: a lossy/noisy one-way quantum link and a public transcript.

The quantum side moves :class:`Pulse` values (one time slot each).  A
noise model contributes three independent effects, applied in a fixed,
documented order inside :func:`transmit`:

    eavesdropper tap  ->  polarization flip  ->  loss

The flip is a 90-degree polarization rotation drawn once per pulse.  It
maps every linear polarization to its orthogonal state, so for each
alphabet it acts as a plain bit flip on the code states.  Dark counts
and channel loss are folded into a single per-pulse loss probability,
because the protocols treat all non-receptions identically.

The classical side is :class:`PublicTranscript`, an append-only message
log that every party -- including the eavesdropper -- can read.
"""

import hashlib
from dataclasses import dataclass

from .quantum import Ket2


@dataclass(frozen=True)
class NoiseModel:
    """Per-pulse channel parameters, each a probability in [0, 1]."""

    flip_p: float = 0.0
    loss_p: float = 0.0
    multi_p: float = 0.0

    def __post_init__(self):
        for name in ("flip_p", "loss_p", "multi_p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")


@dataclass
class Pulse:
    """One time slot's light: photon count plus the polarization state all its photons share."""

    slot: int
    photons: int
    state: Ket2

    def __post_init__(self):
        if self.photons < 1:
            raise ValueError("a pulse carries at least one photon")
        if not isinstance(self.state, Ket2):
            raise ValueError("a pulse state must be a Ket2")


@dataclass(frozen=True)
class Message:
    sender: str  # "alice" | "bob"
    tag: str
    payload: str

    def line(self) -> str:
        return f"{self.sender}\t{self.tag}\t{self.payload.encode('utf-8').hex()}\n"


class PublicTranscript:
    """Append-only log of every classical message, readable by anyone."""

    def __init__(self):
        self._messages = []

    def post(self, sender: str, tag: str, payload: str) -> None:
        self._messages.append(Message(sender, tag, payload))

    def read_all(self):
        return list(self._messages)

    def find(self, sender: str, tag: str):
        """First message matching (sender, tag), or None."""
        for msg in self._messages:
            if msg.sender == sender and msg.tag == tag:
                return msg
        return None

    def serialize(self) -> str:
        """One line per message: ``sender TAB tag TAB payload-hex``, UTF-8."""
        return "".join(msg.line() for msg in self._messages)

    def digest(self) -> str:
        """SHA-256 hex digest of the serialized transcript."""
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    def __len__(self):
        return len(self._messages)


def emit_pulse(slot: int, state: Ket2, noise: NoiseModel, rng) -> Pulse:
    """Source one pulse; a weak source emits two photons with probability multi_p."""
    photons = 2 if rng.uniform() < noise.multi_p else 1
    return Pulse(slot, photons, state)


def flip_state(state: Ket2) -> Ket2:
    """90-degree polarization rotation."""
    return Ket2(-state.a1, state.a0)


def transmit(pulse: Pulse, noise: NoiseModel, tap, rng):
    """Carry a pulse through the channel; returns the delivered pulse or None.

    Effect order is fixed: the eavesdropper tap (if any) acts first,
    then the flip draw, then the loss draw.  Flip and loss each consume
    exactly one draw per pulse regardless of their probabilities, so the
    random stream is aligned across noise settings.
    """
    if tap is not None:
        pulse = tap.apply(pulse)
    if rng.uniform() < noise.flip_p:
        pulse = Pulse(pulse.slot, pulse.photons, flip_state(pulse.state))
    if rng.uniform() < noise.loss_p:
        return None
    return pulse
