"""The two channels: a lossy/noisy one-way quantum link and a public transcript.

The quantum side carries one time slot's polarization state, a
:class:`~qkdsim.quantum.Ket2`, at a time.  :func:`transmit` draws the
source's photon count, then applies the noise model's three independent
effects in a fixed, documented order:

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
function that renders their payloads' hex: the transcript hashes that
hex as it is posted, and unhexlifies it into messages each time they
are read, so their payloads exist only in those reads.
"""

import binascii
import hashlib
import numbers
from collections.abc import Callable, Iterable
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
            v = getattr(self, name)  # any real but a bool, stored as a float
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {v!r}")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
            object.__setattr__(self, name, float(v))


@dataclass(frozen=True)
class Message:
    sender: str  # "alice" | "bob"
    tag: str
    payload: str

    def line(self) -> str:
        return f"{self.sender}\t{self.tag}\t{self.payload.encode('utf-8').hex()}\n"


@dataclass(frozen=True)
class _Lines:
    """Messages from one sender under one tag, one for each payload whose hex ``hexed()`` yields."""

    sender: str
    tag: str
    hexed: Callable[[], Iterable]

    def messages(self):
        text = (binascii.unhexlify(b"".join(parts)).decode("ascii") for parts in self.hexed())
        return [Message(self.sender, self.tag, payload) for payload in text]


class PublicTranscript:
    """Append-only log of every classical message, readable by anyone.

    An entry is one :class:`Message`, or a run of messages posted by
    :meth:`post_lines` that keeps only the function rendering their
    payloads' hex.  A running SHA-256 takes each message's serialized line
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

    def post_lines(self, sender: str, tag: str, hexed: Callable[[], Iterable]) -> None:
        """Post one message for each payload whose hex ``hexed()`` yields.

        ``hexed()`` yields each message in turn as the parts of its
        payload's hex, bytes-like slices of the hex of an ASCII payload.
        It is called here to hash the messages' lines and again each
        time the messages are read.  A run of no messages posts nothing.
        """
        head, count = f"{sender}\t{tag}\t".encode("utf-8"), 0  # each line as Message.line() gives it
        for count, parts in enumerate(hexed(), 1):
            self._sha.update(head)
            for part in parts:
                self._sha.update(part)
            self._sha.update(b"\n")
        if count:
            self._entries.append(_Lines(sender, tag, hexed))
            self._count += count

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


def flip_state(state: Ket2) -> Ket2:
    """90-degree polarization rotation."""
    return Ket2(-state.a1, state.a0)


def transmit(slot: int, state: Ket2, noise: NoiseModel, tap, rng):
    """Carry one slot's state through the channel; returns the delivered state or None.

    Draw order is fixed: the source's multi-photon draw (a weak source
    emits two photons with probability ``multi_p``), then the
    eavesdropper tap (if any), then the flip draw, then the loss draw.
    The source, flip and loss each consume exactly one draw per slot
    regardless of their probabilities, so the random stream is aligned
    across noise settings.
    """
    photons = 2 if rng.uniform() < noise.multi_p else 1
    if tap is not None:
        state = tap.apply(slot, photons, state)
    if rng.uniform() < noise.flip_p:
        state = flip_state(state)
    if rng.uniform() < noise.loss_p:
        return None
    return state
