"""Bit-to-polarization alphabets, and decoding by measuring in an alphabet's code states."""

import math

import pytest

from qkdsim import (
    Ket2,
    Rng,
    b92_alphabet,
    inner,
    measure_projective,
    oblique_alphabet,
    states_equal,
    vh_alphabet,
)
from qkdsim.errors import BadBasis, ThetaOutOfRange

SQ = math.sqrt(0.5)


def test_vh_encoding():
    alpha = vh_alphabet()
    assert states_equal(alpha.encode(1), Ket2(1, 0), tol=1e-14)
    assert states_equal(alpha.encode(0), Ket2(0, 1), tol=1e-14)


def test_oblique_encoding():
    alpha = oblique_alphabet()
    assert states_equal(alpha.encode(1), Ket2(SQ, SQ), tol=1e-14)
    assert states_equal(alpha.encode(0), Ket2(SQ, -SQ), tol=1e-14)


def test_b92_encoding():
    t = math.pi / 8
    alpha = b92_alphabet(t)
    assert states_equal(alpha.encode(1), Ket2(math.cos(t), math.sin(t)), tol=1e-14)
    assert states_equal(alpha.encode(0), Ket2(math.cos(t), -math.sin(t)), tol=1e-14)


def test_theta_range():
    for bad in (0.0, math.pi / 4, -0.2):
        with pytest.raises(ThetaOutOfRange):
            b92_alphabet(bad)


def test_code_state_overlaps():
    assert inner(vh_alphabet().encode(0), vh_alphabet().encode(1)) == 0
    assert inner(oblique_alphabet().encode(0), oblique_alphabet().encode(1)) == 0
    for t in (0.1, math.pi / 8, 0.7):
        alpha = b92_alphabet(t)
        got = inner(alpha.encode(0), alpha.encode(1))
        assert abs(got - math.cos(2 * t)) < 1e-12


def test_decode_own_code_state_is_exact():
    rng = Rng(60)
    for alpha in (vh_alphabet(), oblique_alphabet()):
        for bit in (0, 1):
            state = alpha.encode(bit)
            for _ in range(1000):
                assert measure_projective(state, alpha.code_states, rng)[0] == bit


def test_encode_decode_identity_property():
    # Random alphabet and bit, many cases, zero failures expected.
    rng = Rng(61)
    alphabets = (vh_alphabet(), oblique_alphabet())
    for _ in range(100_000):
        alpha = alphabets[rng.coin()]
        bit = rng.coin()
        assert measure_projective(alpha.encode(bit), alpha.code_states, rng)[0] == bit


def test_cross_alphabet_decode_is_even():
    rng = Rng(62)
    diag = oblique_alphabet().encode(1)
    n = 100_000
    ones = sum(measure_projective(diag, vh_alphabet().code_states, rng)[0] for _ in range(n))
    assert abs(ones / n - 0.5) < 0.01


def test_oblique_decode_certainty():
    rng = Rng(63)
    low = oblique_alphabet().encode(0)
    for _ in range(1000):
        assert measure_projective(low, oblique_alphabet().code_states, rng)[0] == 0


def test_b92_has_no_basis():
    # The B92 code states are not orthogonal, so they make no measurement basis.
    with pytest.raises(BadBasis):
        measure_projective(Ket2(1, 0), b92_alphabet(math.pi / 8).code_states, Rng(0))
