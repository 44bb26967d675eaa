"""qkdsim: a deterministic, seedable simulator of the BB84 and B92 protocols.

Layers, bottom to top: exact single-qubit/probe state vectors
(:mod:`qkdsim.quantum`), bit-to-polarization alphabets
(:mod:`qkdsim.alphabets`), the noisy quantum channel and public
transcript (:mod:`qkdsim.channel`), eavesdropping strategies
(:mod:`qkdsim.eve`), the session engine (:mod:`qkdsim.protocol`), key
distillation (:mod:`qkdsim.distill`), the one-time pad
(:mod:`qkdsim.otp`), and reporting plus the ``qkdsim`` command line
(:mod:`qkdsim.report`, :mod:`qkdsim.cli`).
"""

from . import errors
from .alphabets import QuantumAlphabet, b92_alphabet, oblique_alphabet, vh_alphabet
from .channel import Message, NoiseModel, PublicTranscript, Pulse, emit_pulse, flip_state, transmit
from .distill import (
    DistillAccounting,
    apply_subsets,
    default_block_policy,
    leaked_bits_bound,
    privacy_amplify,
    reconcile,
)
from .eve import (
    EntanglingEve,
    EveTap,
    NoEve,
    OpaqueEve,
    PhotonSplitEve,
    TranslucentEve,
    discrimination_measurement,
    entangling_swap_attack,
    eve_guess,
    identity_translucent,
    translucent_swap_attack,
    validate_interaction,
)
from .fixtures import fixture_names, run_fixture
from .otp import bits_from_string, bits_to_string, otp_xor, xor_bytes
from .protocol import (
    RunReport,
    SessionConfig,
    SiftResult,
    Stage1Record,
    estimate_error,
    run_session,
    run_stage1_b92,
    run_stage1_bb84,
    session_transcript,
    sift_b92,
    sift_bb84,
)
from .quantum import (
    Basis,
    Ket2,
    Ket4,
    PovmOutcome,
    PovmSet,
    apply_unitary,
    build_povm,
    expectation,
    inner,
    measure_povm,
    measure_povm_carrier,
    measure_projective,
    polarization,
    povm_probabilities,
    product_factors,
    quad_form,
    rotation,
    states_equal,
    uncertainty_product,
)
from .report import build_document, render_json, strategy_label, summary_lines
from .rng import Rng

__version__ = "0.1.0"
