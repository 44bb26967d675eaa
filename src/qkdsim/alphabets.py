"""Quantum alphabets: named bit-to-polarization encodings.

Three alphabets are used by the protocols: the vertical/horizontal pair,
the oblique (+-45 degree) pair, and the single non-orthogonal B92 pair at
angles +-theta.  An alphabet is a value object.  The session engine
builds the B92 alphabet and the receiver's POVM from the same session
theta, so sender and receiver always agree on the angle.  The code
states of a projective alphabet are its measurement basis, as passed to
:func:`~qkdsim.quantum.measure_projective`: they are a
:class:`~qkdsim.quantum.Basis`, checked for orthogonality once, when the
alphabet is built, and not again per measurement.  The B92 code states
are a plain pair, which ``measure_projective`` checks on each call and
refuses with ``BadBasis``, as they are not orthogonal.
"""

import math
from dataclasses import dataclass

from .errors import ThetaOutOfRange
from .quantum import Basis, Ket2, polarization

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class QuantumAlphabet:
    name: str
    code_states: tuple  # indexed by bit

    def encode(self, bit: int) -> Ket2:
        return self.code_states[bit]


def vh_alphabet() -> QuantumAlphabet:
    """Vertical/horizontal alphabet: 1 -> vertical, 0 -> horizontal."""
    return QuantumAlphabet("VH", Basis(Ket2(0.0, 1.0), Ket2(1.0, 0.0)))


def oblique_alphabet() -> QuantumAlphabet:
    """Oblique alphabet: 1 -> +45 degrees, 0 -> -45 degrees off vertical."""
    return QuantumAlphabet(
        "Oblique",
        Basis(Ket2(_SQRT_HALF, -_SQRT_HALF), Ket2(_SQRT_HALF, _SQRT_HALF)),
    )


def b92_alphabet(theta: float) -> QuantumAlphabet:
    """Non-orthogonal pair at +-theta: 1 -> plus state, 0 -> minus state."""
    if not 0.0 < theta < math.pi / 4:
        raise ThetaOutOfRange(f"theta must lie in (0, pi/4), got {theta!r}")
    return QuantumAlphabet("B92", (polarization(-theta), polarization(theta)))

