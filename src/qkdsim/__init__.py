"""qkdsim: a deterministic, seedable simulator of the BB84 and B92 protocols.

Layers, bottom to top: exact single-qubit/probe state vectors
(:mod:`qkdsim.quantum`), bit-to-polarization alphabets
(:mod:`qkdsim.alphabets`), the noisy quantum channel and public
transcript (:mod:`qkdsim.channel`), eavesdropping strategies
(:mod:`qkdsim.eve`), the session engine (:mod:`qkdsim.protocol`), key
distillation (:mod:`qkdsim.distill`), the one-time pad
(:mod:`qkdsim.otp`), and reporting plus the ``qkdsim`` command line
(:mod:`qkdsim.report`, :mod:`qkdsim.cli`).

The names imported below are the library API, the same list as the
README's library tour.  Any other name, in a submodule or not, is an
engine internal that a change may rename or delete while the reports
keep their ``schema_version``.
"""

from . import errors
from .alphabets import BB84_ALPHABETS, b92_alphabet, oblique_alphabet, vh_alphabet
from .channel import NoiseModel, PublicTranscript, transmit
from .distill import apply_subsets, leaked_bits_bound, privacy_amplify, reconcile
from .eve import (
    EntanglingEve,
    NoEve,
    OpaqueEve,
    PhotonSplitEve,
    TranslucentEve,
    entangling_swap_attack,
    identity_translucent,
    translucent_swap_attack,
    validate_interaction,
)
from .fixtures import fixture_names, run_fixture
from .otp import bits_from_string, bits_to_string, otp_xor, xor_bytes
from .protocol import RunReport, SessionConfig, run_session
from .quantum import (
    Basis,
    Ket2,
    PovmOutcome,
    PovmSet,
    apply_unitary,
    build_povm,
    expectation,
    inner,
    measure_povm,
    measure_projective,
    polarization,
    povm_probabilities,
    rotation,
    states_equal,
    uncertainty_product,
)
from .report import build_document, render_json, summary_lines
from .rng import Rng

__version__ = "0.1.0"
