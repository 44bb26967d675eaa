"""Per-slot stage 1 as a reference for the session engine's.

This is the quantum stage with nothing decided once per session: every
projective measurement checks its basis, passed as a plain tuple,
through ``_check_basis``; the translucent tap finds each pulse's row by
``states_equal``; and the POVM probabilities are :func:`quad_form` of
each element.  It draws from the stream in the engine's documented
order, so on equal seeds the engine must give the same record, the same
tap record and the same final stream state.
"""

from qkdsim import (
    OpaqueEve,
    PhotonSplitEve,
    PovmOutcome,
    Stage1Record,
    b92_alphabet,
    build_povm,
    flip_state,
    inner,
    oblique_alphabet,
    quad_form,
    states_equal,
    vh_alphabet,
)
from qkdsim.errors import NotHermitian, StateNotInAlphabet
from qkdsim.quantum import OPERATOR_TOL, _check_basis


def measure_projective(state, basis, rng):
    b0, b1 = _check_basis(tuple(basis))
    p0 = abs(inner(b0, state)) ** 2
    bit = 0 if rng.uniform() < p0 else 1
    return bit, (b0 if bit == 0 else b1)


def measure_povm(state, povm, rng):
    probs = tuple(quad_form(el, state) for el in povm.elements())
    if not abs(sum(probs) - 1.0) <= OPERATOR_TOL:
        raise NotHermitian(f"POVM probabilities sum to {sum(probs)!r}")
    return PovmOutcome(rng.pick_weighted(probs))


class Tap:
    """What :class:`~qkdsim.EveTap` does to a pulse, and the record it keeps."""

    def __init__(self, strategy, protocol, rng, theta):
        self.strategy = strategy
        self.rng = rng
        self.record = {}
        if isinstance(strategy, OpaqueEve):
            if protocol == "bb84":
                self.menu = (("+", tuple(vh_alphabet().code_states)), ("x", tuple(oblique_alphabet().code_states)))
            else:
                alpha = b92_alphabet(theta)
                plus, minus = alpha.encode(1), alpha.encode(0)
                self.menu = (("m", (minus, minus.orthogonal())), ("p", (plus.orthogonal(), plus)))
        elif not isinstance(strategy, PhotonSplitEve):
            alpha = b92_alphabet(theta)
            self.table = tuple((alpha.encode(bit), *strategy.coupling[bit]) for bit in (1, 0))

    def apply(self, slot, photons, state):
        """(photons, state) forwarded for a pulse of ``photons`` in ``state`` at ``slot``."""
        if isinstance(self.strategy, OpaqueEve):
            if self.rng.uniform() >= self.strategy.fraction:
                return photons, state
            choice, basis = self.menu[self.rng.coin()]
            bit, collapsed = measure_projective(state, basis, self.rng)
            self.record[slot] = (choice, bit)
            return photons, collapsed
        if isinstance(self.strategy, PhotonSplitEve):
            if photons < 2:
                return photons, state
            self.record[slot] = state
            return photons - 1, state
        for code_state, forwarded, probe in self.table:
            if states_equal(state, code_state):
                self.record[slot] = probe
                return photons, forwarded
        raise StateNotInAlphabet(f"incoming state {state!r} is not a +-theta code state")


def _transmit(slot, state, noise, tap, rng):
    """Source, tap, flip and loss of one slot: the delivered state, or None."""
    photons = 2 if rng.uniform() < noise.multi_p else 1
    if tap is not None:
        photons, state = tap.apply(slot, photons, state)
    if rng.uniform() < noise.flip_p:
        state = flip_state(state)
    if rng.uniform() < noise.loss_p:
        return None
    return state


def run_stage1_bb84(cfg, rng, tap) -> Stage1Record:
    alphabets = (vh_alphabet(), oblique_alphabet())
    alice_bits, alice_alphas, bob_alphas, bob_bits, received = [], [], [], [], []
    for slot in range(cfg.n_pulses):
        bit = rng.coin()
        alpha = rng.coin()
        alice_bits.append(bit)
        alice_alphas.append(alpha)
        delivered = _transmit(slot, alphabets[alpha].encode(bit), cfg.noise, tap, rng)
        if delivered is None:
            received.append(False)
            bob_alphas.append(None)
            bob_bits.append(None)
            continue
        b_alpha = rng.coin()
        bob_alphas.append(b_alpha)
        bit_out, _ = measure_projective(delivered, alphabets[b_alpha].code_states, rng)
        bob_bits.append(bit_out)
        received.append(True)
    return Stage1Record(alice_bits, received, bob_bits, alice_alphabets=alice_alphas, bob_alphabets=bob_alphas)


def run_stage1_b92(cfg, rng, tap) -> Stage1Record:
    alphabet = b92_alphabet(cfg.theta)
    povm = build_povm(cfg.theta)
    alice_bits, received, bob_bits = [], [], []
    for slot in range(cfg.n_pulses):
        bit = rng.coin()
        alice_bits.append(bit)
        delivered = _transmit(slot, alphabet.encode(bit), cfg.noise, tap, rng)
        if delivered is None:
            received.append(False)
            bob_bits.append(None)
            continue
        outcome = measure_povm(delivered, povm, rng)
        received.append(True)
        bob_bits.append(None if outcome == PovmOutcome.INCONCLUSIVE else int(outcome))
    return Stage1Record(alice_bits, received, bob_bits)
