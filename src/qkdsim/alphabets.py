"""Quantum alphabets: bit-to-polarization encodings.

Three alphabets are used by the protocols: the vertical/horizontal pair,
the oblique (+-45 degree) pair, and the single non-orthogonal B92 pair at
angles +-theta.  An alphabet is its pair of code states, indexed by the
bit.  :data:`BB84_ALPHABETS` is BB84's one table of alphabets: each
alphabet's announced character and code states, indexed by the alphabet
coin.  The B92 pair is :func:`~qkdsim.quantum.b92_alphabet`, defined
beside the POVM that :func:`~qkdsim.quantum.build_povm` builds from it
and imported here under its name.  The code states of a projective
alphabet are its measurement basis, as passed to
:func:`~qkdsim.quantum.measure_projective`: they are a
:class:`~qkdsim.quantum.Basis`, checked for orthogonality once, when the
alphabet is built, and not again per measurement.  The B92 code states
are a plain pair, which ``measure_projective`` checks on each call and
refuses with ``BadBasis``, as they are not orthogonal.
"""

import math

from .quantum import Basis, Ket2, b92_alphabet  # noqa: F401 (b92_alphabet is re-exported)

_SQRT_HALF = math.sqrt(0.5)


def vh_alphabet() -> Basis:
    """Vertical/horizontal alphabet: 1 -> vertical, 0 -> horizontal."""
    return Basis(Ket2(0.0, 1.0), Ket2(1.0, 0.0))


def oblique_alphabet() -> Basis:
    """Oblique alphabet: 1 -> +45 degrees, 0 -> -45 degrees off vertical."""
    return Basis(Ket2(_SQRT_HALF, -_SQRT_HALF), Ket2(_SQRT_HALF, _SQRT_HALF))


# (announced character, code states) of each BB84 alphabet, indexed by the alphabet coin.
BB84_ALPHABETS = (("+", vh_alphabet()), ("x", oblique_alphabet()))
