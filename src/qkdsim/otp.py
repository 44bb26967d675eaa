"""One-time-pad encryption: bitwise XOR with an equally long key.

The operation is its own inverse, so a single function serves both
directions.  Guarding against key reuse is an operational concern and
lives in the command-line tool's ledger, not here.
"""

from .errors import LengthMismatch


def otp_xor(text, key):
    """XOR two equal-length bit sequences; returns a list of bits.

    A ``ValueError`` names the first entry, of ``text`` then of ``key``, that is not an
    integer 0 or 1: ``1.0`` equals 1 but has no ``__index__``, so ``^`` would refuse it.
    """
    if len(text) != len(key):
        raise LengthMismatch(f"text has {len(text)} bits but key has {len(key)}")
    for name, bits in (("text", text), ("key", key)):
        for index, bit in enumerate(bits):
            if not hasattr(type(bit), "__index__") or bit not in (0, 1):
                raise ValueError(f"{name}: not a bit: {bit!r} at index {index}")
    return [t ^ k for t, k in zip(text, key)]


def xor_bytes(data: bytes, key: bytes) -> bytes:
    """Byte-stream form of the same cipher (eight bits at a time)."""
    if len(data) != len(key):
        raise LengthMismatch(f"data has {len(data)} bytes but key has {len(key)}")
    return bytes(d ^ k for d, k in zip(data, key))


def bits_from_string(text: str):
    """Parse a string of '0'/'1' characters into a bit list.

    Raises
    ------
    ValueError
        Naming the first other character and its index.
    """
    for index, ch in enumerate(text):
        if ch not in ("0", "1"):
            raise ValueError(f"not a bit: {ch!r} at index {index}")
    return [1 if ch == "1" else 0 for ch in text]


def bits_to_string(bits) -> str:
    return "".join("1" if b else "0" for b in bits)
