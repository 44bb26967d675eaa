"""One-time pad: the worked example plus algebraic properties."""

import pytest

from qkdsim import Rng, bits_from_string, bits_to_string, otp_xor, xor_bytes
from qkdsim.errors import LengthMismatch


def test_worked_example():
    plain = bits_from_string("011001011101")
    key = bits_from_string("101011100100")
    assert bits_to_string(otp_xor(plain, key)) == "110010111001"


def test_zero_key_is_identity():
    plain = bits_from_string("10110")
    assert otp_xor(plain, [0] * 5) == plain


def test_key_reuse_cancels():
    # Two ciphertexts under one key reveal the plaintext difference.
    rng = Rng(140)
    key = [rng.coin() for _ in range(64)]
    p1 = [rng.coin() for _ in range(64)]
    p2 = [rng.coin() for _ in range(64)]
    c1, c2 = otp_xor(p1, key), otp_xor(p2, key)
    assert otp_xor(c1, c2) == otp_xor(p1, p2)


def test_involution_up_to_64k_bits():
    rng = Rng(141)
    for n in (1, 7, 256, 4096, 2**16):
        plain = [rng.coin() for _ in range(n)]
        key = [rng.coin() for _ in range(n)]
        out = otp_xor(otp_xor(plain, key), key)
        assert out == plain
        assert len(out) == n


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        otp_xor([0, 1], [0])
    with pytest.raises(LengthMismatch):
        xor_bytes(b"ab", b"a")


def test_byte_form_matches_bit_form():
    data, key = b"\x5a\x0f", b"\xff\x01"
    byte_out = xor_bytes(data, key)
    bit_out = otp_xor(
        bits_from_string(format(int.from_bytes(data, "big"), "016b")),
        bits_from_string(format(int.from_bytes(key, "big"), "016b")),
    )
    assert format(int.from_bytes(byte_out, "big"), "016b") == bits_to_string(bit_out)


@pytest.mark.parametrize("text, bad, index", [("01x1", "x", 2), ("2", "2", 0), ("0 1", " ", 1)])
def test_bits_from_string_rejects_non_bits(text, bad, index):
    with pytest.raises(ValueError, match=f"{bad!r} at index {index}$"):
        bits_from_string(text)


@pytest.mark.parametrize(
    "text, key, message",
    [
        ([2, 1], [1, 1], "text: not a bit: 2 at index 0"),
        ([0, 1, 1], [1, 0, -1], "key: not a bit: -1 at index 2"),
        ([1, "0"], [5, 1], "text: not a bit: '0' at index 1"),
        ([1.0, 0], [1, 1], "text: not a bit: 1.0 at index 0"),
        ([0, 1], [1, 0.0], "key: not a bit: 0.0 at index 1"),
    ],
)
def test_otp_xor_rejects_non_bits(text, key, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        otp_xor(text, key)
