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
log that every party -- including the eavesdropper -- can read.  It
hashes each message's serialized line as the message is posted, so its
digest costs nothing at the end of a session.  A run of messages posted
together, such as privacy amplification's subsets, is kept as the
function that renders their payloads and is rendered again only when
the messages are read.
"""

import binascii
import hashlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

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


class Pulse:
    """One time slot's light: photon count plus the polarization state all its photons share."""

    __slots__ = ("slot", "photons", "state")

    def __init__(self, slot: int, photons: int, state: Ket2):
        if photons < 1:
            raise ValueError("a pulse carries at least one photon")
        if not isinstance(state, Ket2):
            raise ValueError("a pulse state must be a Ket2")
        self.slot = slot
        self.photons = photons
        self.state = state

    def __repr__(self):
        return f"Pulse(slot={self.slot!r}, photons={self.photons!r}, state={self.state!r})"


@dataclass(frozen=True)
class Message:
    sender: str  # "alice" | "bob"
    tag: str
    payload: str

    def line(self) -> str:
        return f"{self.sender}\t{self.tag}\t{self.payload.encode('utf-8').hex()}\n"


@dataclass(frozen=True)
class _Lines:
    """Messages from one sender under one tag whose payloads are the lines of ``render()``."""

    sender: str
    tag: str
    render: Callable[[], bytes]

    def messages(self):
        payloads = self.render().decode("ascii").split("\n")
        return [Message(self.sender, self.tag, payload) for payload in payloads[:-1]]


class PublicTranscript:
    """Append-only log of every classical message, readable by anyone.

    An entry is one :class:`Message`, or a run of messages posted by
    :meth:`post_lines` that keeps only the function rendering their
    payloads.  A running SHA-256 takes each message's serialized line
    when it is posted, so :meth:`digest` renders nothing.
    """

    def __init__(self):
        self._entries = []
        self._count = 0
        self._sha = hashlib.sha256()

    def post(self, sender: str, tag: str, payload: str) -> None:
        msg = Message(sender, tag, payload)
        self._entries.append(msg)
        self._count += 1
        self._sha.update(msg.line().encode("utf-8"))

    def post_lines(self, sender: str, tag: str, render: Callable[[], bytes]) -> None:
        """Post one message for each line of ``render()``, the line its payload.

        ``render()`` returns ASCII text in which every line, the last
        included, ends in a newline.  It is called here to hash the
        lines and again each time the messages are read.
        """
        text = render()
        ends = (2 * np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))).tolist()
        if not ends:
            return
        self._entries.append(_Lines(sender, tag, render))
        self._count += len(ends)
        # A payload's hex is its stretch of the text's hex, which skips the newline's "0a".
        hexed = memoryview(binascii.hexlify(text))
        head = f"{sender}\t{tag}\t".encode("utf-8")
        start = 0
        for end in ends:
            self._sha.update(head)
            self._sha.update(hexed[start:end])
            self._sha.update(b"\n")
            start = end + 2

    def __iter__(self):
        """Every message in posting order, one entry rendered at a time."""
        for entry in self._entries:
            if isinstance(entry, Message):
                yield entry
            else:
                yield from entry.messages()

    def find(self, sender: str, tag: str):
        """First message matching (sender, tag), or None."""
        for entry in self._entries:
            if entry.sender == sender and entry.tag == tag:
                return entry if isinstance(entry, Message) else entry.messages()[0]
        return None

    def serialize(self) -> str:
        """One line per message: ``sender TAB tag TAB payload-hex``, UTF-8."""
        return "".join(msg.line() for msg in self)

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`serialize`'s UTF-8 bytes.

        Every line was hashed when its message was posted; this reads a
        copy of the running hash.
        """
        return self._sha.copy().hexdigest()

    def __len__(self):
        return self._count


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
