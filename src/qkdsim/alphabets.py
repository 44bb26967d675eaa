"""Quantum alphabets: named bit-to-polarization encodings.

Three alphabets are used by the protocols: the vertical/horizontal pair,
the oblique (+-45 degree) pair, and the single non-orthogonal B92 pair at
angles +-theta.  An alphabet is a value object.  The session engine
builds the B92 alphabet and the receiver's POVM from the same session
theta, so sender and receiver always agree on the angle.
"""

import math
from dataclasses import dataclass

from .errors import NotProjectiveAlphabet, ThetaOutOfRange
from .quantum import Ket2, measure_projective, polarization

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class QuantumAlphabet:
    name: str
    projective: bool
    code_states: tuple  # indexed by bit

    def encode(self, bit: int) -> Ket2:
        return self.code_states[bit]

    @property
    def basis(self):
        """Bit-ordered orthonormal basis; only projective alphabets have one."""
        if not self.projective:
            raise NotProjectiveAlphabet(f"alphabet {self.name!r} has no orthonormal basis")
        return self.code_states


def vh_alphabet() -> QuantumAlphabet:
    """Vertical/horizontal alphabet: 1 -> vertical, 0 -> horizontal."""
    return QuantumAlphabet("VH", True, (Ket2(0.0, 1.0), Ket2(1.0, 0.0)))


def oblique_alphabet() -> QuantumAlphabet:
    """Oblique alphabet: 1 -> +45 degrees, 0 -> -45 degrees off vertical."""
    return QuantumAlphabet(
        "Oblique",
        True,
        (Ket2(_SQRT_HALF, -_SQRT_HALF), Ket2(_SQRT_HALF, _SQRT_HALF)),
    )


def b92_alphabet(theta: float) -> QuantumAlphabet:
    """Non-orthogonal pair at +-theta: 1 -> plus state, 0 -> minus state."""
    if not 0.0 < theta < math.pi / 4:
        raise ThetaOutOfRange(f"theta must lie in (0, pi/4), got {theta!r}")
    return QuantumAlphabet("B92", False, (polarization(-theta), polarization(theta)))


def decode_by_basis(alphabet: QuantumAlphabet, state: Ket2, rng) -> int:
    """Measure in the alphabet's own basis and return the observed bit label."""
    bit, _ = measure_projective(state, alphabet.basis, rng)
    return bit
