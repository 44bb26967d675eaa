"""Bundled worked examples with recorded coin flips, replayed without randomness.

Each fixture injects a fixed ten-slot (or twelve-bit) history into the
ordinary machinery and checks the outcome against the recorded result:

* ``fig6a`` -- a two-alphabet exchange with no eavesdropper; sifting
  must yield the raw key 011000 at slots 2,4,5,6,7,9 (slots numbered
  from 1 as in the recorded table).
* ``fig6b`` -- the same sender history with an intercept-resend
  eavesdropper in the middle; Bob's raw key becomes 011110, wrong at
  slots 6 and 7, two of the slots where Eve measured in the wrong alphabet.
* ``vernam`` -- the one-time-pad worked example
  0110 0101 1101 xor 1010 1110 0100 = 1100 1011 1001.
"""

from dataclasses import dataclass

from .channel import PublicTranscript
from .otp import bits_from_string, bits_to_string, otp_xor
from .protocol import Stage1Record, sift_bb84

# Alphabet coin values per slot: 0 = "+", 1 = "x".
_ALICE_ALPHABETS = [0, 1, 1, 1, 0, 1, 0, 1, 0, 1]
_ALICE_BITS = [1, 0, 0, 1, 1, 0, 0, 1, 0, 1]
_BOB_ALPHABETS = [1, 1, 0, 1, 0, 1, 0, 0, 0, 0]
_BOB_BITS_QUIET = [1, 0, 1, 1, 1, 0, 0, 0, 0, 0]

_EVE_ALPHABETS = [1, 0, 0, 1, 0, 0, 1, 1, 0, 0]
_EVE_BITS = [1, 0, 1, 1, 1, 1, 0, 1, 0, 0]
_BOB_BITS_TAPPED = [1, 0, 1, 1, 1, 1, 1, 0, 0, 0]

_VERNAM_PLAIN = "011001011101"
_VERNAM_KEY = "101011100100"
_VERNAM_CIPHER = "110010111001"


@dataclass
class FixtureOutcome:
    name: str
    passed: bool
    lines: list
    data: dict


def fixture_names():
    return tuple(_RUNNERS)


def _csv(values) -> str:
    return ",".join(map(str, values))


def _fig6(tapped: bool) -> FixtureOutcome:
    """Sift the recorded exchange: quiet (fig6a) or with Eve in the middle (fig6b)."""
    record = Stage1Record(
        "bb84",
        list(_ALICE_BITS),
        [True] * 10,
        list(_BOB_BITS_TAPPED if tapped else _BOB_BITS_QUIET),
        alice_alphabets=list(_ALICE_ALPHABETS),
        bob_alphabets=list(_BOB_ALPHABETS),
    )
    sift = sift_bb84(record, PublicTranscript())
    raw_alice = bits_to_string(sift.raw_alice)
    raw_bob = bits_to_string(sift.raw_bob)
    slots = [s + 1 for s in sift.slots]
    data = {"raw_alice": raw_alice, "raw_bob": raw_bob, "slots": slots}
    lines = [
        f"kept slots: {_csv(slots)}",
        f"raw key (alice): {raw_alice}",
        f"raw key (bob):   {raw_bob}",
    ]
    passed = raw_alice == "011000" and slots == [2, 4, 5, 6, 7, 9]
    if not tapped:
        passed = passed and raw_bob == "011000"
        lines.append(f"expected raw key 011000 at slots 2,4,5,6,7,9: {'pass' if passed else 'FAIL'}")
        return FixtureOutcome("fig6a", passed, lines, data)

    error_positions = [i + 1 for i, (a, b) in enumerate(zip(sift.raw_alice, sift.raw_bob)) if a != b]
    error_slots = [slots[i - 1] for i in error_positions]
    eve_wrong_slots = [s + 1 for s in sift.slots if _EVE_ALPHABETS[s] != _ALICE_ALPHABETS[s]]
    # Where Eve chose Alice's alphabet she read Alice's bit, so her resend caused no error.
    eve_read = [_EVE_BITS[s] == _ALICE_BITS[s] for s in sift.slots if s + 1 not in eve_wrong_slots]
    passed = (
        passed
        and raw_bob == "011110"
        and error_positions == [4, 5]
        and error_slots == [6, 7]
        and eve_wrong_slots == [2, 6, 7]
        and set(error_slots) <= set(eve_wrong_slots)
        and all(eve_read)
    )
    lines += [
        f"errors at sifted positions {_csv(error_positions)} (slots {_csv(error_slots)})",
        f"eve measured in the wrong alphabet at slots {_csv(eve_wrong_slots)}",
        f"expected bob raw key 011110 with errors at slots 6,7: {'pass' if passed else 'FAIL'}",
    ]
    data.update(
        error_positions=error_positions, error_slots=error_slots, eve_wrong_slots=eve_wrong_slots
    )
    return FixtureOutcome("fig6b", passed, lines, data)


def _vernam() -> FixtureOutcome:
    plain = bits_from_string(_VERNAM_PLAIN)
    key = bits_from_string(_VERNAM_KEY)
    cipher = bits_to_string(otp_xor(plain, key))
    roundtrip = bits_to_string(otp_xor(bits_from_string(cipher), key))
    passed = cipher == _VERNAM_CIPHER and roundtrip == _VERNAM_PLAIN
    lines = [
        f"plaintext:  {_VERNAM_PLAIN}",
        f"key:        {_VERNAM_KEY}",
        f"ciphertext: {cipher}",
        f"expected ciphertext {_VERNAM_CIPHER}: {'pass' if passed else 'FAIL'}",
    ]
    return FixtureOutcome("vernam", passed, lines, {"cipher": cipher})


_RUNNERS = {
    "fig6a": lambda: _fig6(tapped=False),
    "fig6b": lambda: _fig6(tapped=True),
    "vernam": _vernam,
}


def run_fixture(name: str) -> FixtureOutcome:
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; choose from {', '.join(fixture_names())}")
    return runner()
